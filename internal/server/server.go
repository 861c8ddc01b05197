// Package server is the long-running experiment-serving daemon behind
// `o2kbench serve` (DESIGN.md §5.11): an HTTP/JSON front end over the same
// engine, registry, disk cache, and lease machinery the one-shot CLI uses.
// Many concurrent clients share one memoized cell map — N identical
// submissions cost one simulation — and daemons or CLI runs that share a
// cache directory with leases on coordinate through per-cell lease files,
// so each cold persisted cell is computed once per cache directory.
//
// The API, under /v1:
//
//	POST /v1/experiments            submit a registry experiment; the response
//	                                streams one NDJSON line per cell event and
//	                                ends with a result line whose "output"
//	                                field is byte-identical to the CLI's stdout
//	GET  /v1/cells/{app}/{model}/{procs}  resolve one simulation cell
//	                                (memo → disk → compute, honoring leases)
//	GET  /v1/report                 the engine's live run report
//	GET  /v1/cache                  persistent-cache counters; ?verify=1 scans
//	GET  /healthz                   liveness; 503 once draining
//	GET  /metrics                   Prometheus text exposition
//
// Admission is a bounded queue: MaxInflight requests run concurrently,
// MaxQueue more wait, and anything beyond that is refused with 429 so a
// traffic spike degrades to fast rejections instead of unbounded goroutine
// pileup. Each admitted request runs under its own context (the HTTP request
// context), so a client disconnect aborts exactly the cells no other live
// request still wants — the engine retires those and recomputes them on the
// next ask. Drain() flips the daemon to refusing new work while in-flight
// requests finish and commit their cells to the disk cache.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/machine"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
)

// Config assembles a Server. Engine is required; the zero value of every
// other field selects a sensible default.
type Config struct {
	Engine *runner.Engine
	// Cache is the engine's persistent cache, surfaced read-only through
	// /v1/cache; nil when the daemon runs memory-only.
	Cache *diskcache.Cache
	// MaxInflight bounds concurrently running experiment/cell requests
	// (default 4). Cell concurrency *within* a request is still the engine's
	// -jobs pool; this bounds how many requests contend for it.
	MaxInflight int
	// MaxQueue bounds requests waiting for a run slot (default 16); beyond
	// MaxInflight+MaxQueue, admission answers 429.
	MaxQueue int
	// Hook, when set, also receives every engine event (the metrics hook is
	// installed regardless; tests chain their own observers here).
	Hook runner.Hook
}

// Server is the HTTP handler. Create it with New; it installs the metrics
// hook on the engine, so construct it before the engine's first cell.
type Server struct {
	eng      *runner.Engine
	dc       *diskcache.Cache
	slots    chan struct{}
	limit    int64        // MaxInflight + MaxQueue
	pending  atomic.Int64 // admitted requests: running + queued
	draining atomic.Bool
	met      *Metrics
	mux      *http.ServeMux
}

// New returns a Server over cfg.Engine. It attaches the metrics hook (and
// cfg.Hook) via the engine's SetHook seam.
func New(cfg Config) *Server {
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = 4
	}
	queue := cfg.MaxQueue
	if queue <= 0 {
		queue = 16
	}
	s := &Server{
		eng:   cfg.Engine,
		dc:    cfg.Cache,
		slots: make(chan struct{}, inflight),
		limit: int64(inflight + queue),
		met:   newMetrics(),
		mux:   http.NewServeMux(),
	}
	mh := s.met.Hook()
	extra := cfg.Hook
	s.eng.SetHook(func(ev runner.Event) {
		mh(ev)
		if extra != nil {
			extra(ev)
		}
	})
	s.mux.HandleFunc("POST /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/cells/{app}/{model}/{procs}", s.handleCell)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Metrics exposes the server's telemetry (the serve subcommand prints a
// final scrape on drain).
func (s *Server) Metrics() *Metrics { return s.met }

// Drain flips the daemon to shutdown mode: /healthz answers 503 and new
// work is refused, while requests already admitted run to completion —
// their cells commit to the disk cache because the engine's context is the
// process's, not any request's.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// statusWriter captures the response code for the HTTP metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards streaming flushes so NDJSON lines reach the client as the
// cells land, not when the response ends.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	s.met.observeHTTP(sw.code)
}

// jsonError writes a JSON error document with the given status.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// acquire admits one request through the bounded queue: it returns a release
// function, or writes the refusal (429 queue full, 503 draining) and returns
// nil. A request whose client leaves while queued releases silently.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) func() {
	if s.draining.Load() {
		s.met.rejectedDrain.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "draining")
		return nil
	}
	if n := s.pending.Add(1); n > s.limit {
		s.pending.Add(-1)
		s.met.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusTooManyRequests, "admission queue full (%d pending)", n-1)
		return nil
	}
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots; s.pending.Add(-1) }
	case <-r.Context().Done():
		s.pending.Add(-1)
		return nil
	}
}

// experimentsRequest is the POST /v1/experiments body. The zero value means
// the CLI's defaults: every experiment, full workloads, the paper sweep.
type experimentsRequest struct {
	Exp   string `json:"exp"`   // registry name, alias, or "all" (default)
	Quick bool   `json:"quick"` // reduced workloads and processor counts
	Procs string `json:"procs"` // "1,4,16" or a preset name; "" keeps the suite default
}

// requestOpts resolves the request into experiment options, mirroring the
// CLI flag handling so a given request and the equivalent flag set select
// identical cells.
func requestOpts(req experimentsRequest) (experiments.Opts, error) {
	o := experiments.DefaultOpts()
	if req.Quick {
		o = experiments.QuickOpts()
	}
	if req.Procs != "" {
		ps, err := experiments.ParseProcs(req.Procs)
		if err != nil {
			return o, err
		}
		o.Procs = ps
	}
	return o, nil
}

// streamLine is one NDJSON line of an experiment response.
type streamLine struct {
	Type    string  `json:"type"`              // "cell", "result", or "error"
	Kind    string  `json:"kind,omitempty"`    // cell: event kind (compute, memo-hit, …)
	Key     string  `json:"key,omitempty"`     // cell: content hash
	Label   string  `json:"label,omitempty"`   // cell: human-readable description
	Ms      float64 `json:"ms,omitempty"`      // cell: event span in milliseconds
	Attempt int     `json:"attempt,omitempty"` // cell: compute attempt number
	Err     string  `json:"err,omitempty"`     // cell: outcome error
	Exit    int     `json:"exit"`              // result: the CLI-equivalent exit code
	Fails   int     `json:"failures"`          // result: distinct failed cells of this request
	Output  string  `json:"output,omitempty"`  // result: the CLI's exact stdout bytes
	Error   string  `json:"error,omitempty"`   // error: what went wrong
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var req experimentsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Exp == "" {
		req.Exp = "all"
	}
	if req.Exp != "all" {
		if _, ok := experiments.Lookup(req.Exp); !ok {
			jsonError(w, http.StatusBadRequest, "unknown experiment %q (GET /v1/report lists nothing — see o2kbench -list)", req.Exp)
			return
		}
	}
	o, err := requestOpts(req)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	release := s.acquire(w, r)
	if release == nil {
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)

	// The per-request hook fires from the builders' goroutines concurrently;
	// one mutex serializes the stream and guards the failure ledger. After a
	// disconnect, a cell this request abandoned can still deliver its final
	// event from the detached publisher goroutine once the handler has
	// returned — the closed flag keeps those off the dead ResponseWriter.
	var (
		mu      sync.Mutex
		closed  bool
		cellErr = make(map[string]string)
	)
	defer func() {
		mu.Lock()
		closed = true
		mu.Unlock()
	}()
	writeLine := func(l streamLine) {
		data, err := json.Marshal(l)
		if err != nil {
			return
		}
		mu.Lock()
		if !closed {
			w.Write(append(data, '\n'))
			if fl != nil {
				fl.Flush()
			}
		}
		mu.Unlock()
	}
	hook := runner.Hook(func(ev runner.Event) {
		if ev.Kind != runner.EventRetry {
			// Terminal event kinds carry the cell's outcome for this
			// request; the last one per key wins (a retried compute that
			// succeeds clears its earlier attempts' errors).
			mu.Lock()
			cellErr[ev.Key] = ev.Err
			mu.Unlock()
		}
		writeLine(streamLine{
			Type: "cell", Kind: ev.Kind.String(), Key: ev.Key, Label: ev.Label,
			Ms: float64(ev.Dur) / 1e6, Attempt: ev.Attempt, Err: ev.Err,
		})
	})

	ctx := runner.WithRequestHook(r.Context(), hook)
	tables, err := experiments.RunOnCtx(ctx, s.eng, req.Exp, o)
	if err != nil {
		writeLine(streamLine{Type: "error", Error: err.Error()})
		return
	}
	failures := 0
	mu.Lock()
	for _, e := range cellErr {
		if e != "" {
			failures++
		}
	}
	mu.Unlock()
	exit := 0
	if failures > 0 {
		exit = 1
	}
	writeLine(streamLine{Type: "result", Exit: exit, Fails: failures, Output: experiments.Render(tables)})
}

// cellResponse is the GET /v1/cells document.
type cellResponse struct {
	App     string          `json:"app"`
	Model   string          `json:"model"`
	Procs   int             `json:"procs"`
	Quick   bool            `json:"quick"`
	Key     string          `json:"key,omitempty"`
	Label   string          `json:"label,omitempty"`
	Source  string          `json:"source"` // compute, memo, disk, or dedup
	Metrics json.RawMessage `json:"metrics,omitempty"`
	Err     string          `json:"err,omitempty"`
}

// cellSource maps the request's terminal event kind to the response's
// source field.
func cellSource(k runner.EventKind) string {
	switch k {
	case runner.EventMemoHit:
		return "memo"
	case runner.EventDiskHit:
		return "disk"
	case runner.EventDedup:
		return "dedup"
	default:
		return "compute"
	}
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	app, modelName := r.PathValue("app"), r.PathValue("model")
	procs, err := strconv.Atoi(r.PathValue("procs"))
	if err != nil || procs < 1 {
		jsonError(w, http.StatusBadRequest, "bad processor count %q", r.PathValue("procs"))
		return
	}
	quick := r.URL.Query().Get("quick") == "1" || r.URL.Query().Get("quick") == "true"
	o := experiments.DefaultOpts()
	if quick {
		o = experiments.QuickOpts()
	}
	var model core.Model
	switch modelName {
	case "mp":
		model = core.MP
	case "shmem":
		model = core.SHMEM
	case "sas", "cc-sas", "ccsas":
		model = core.SAS
	case "mp+sas", "mp-sas":
		if app != "hybrid" {
			jsonError(w, http.StatusBadRequest, "model %q is only valid for the hybrid app", modelName)
			return
		}
	default:
		jsonError(w, http.StatusBadRequest, "unknown model %q (want mp, shmem, or sas; hybrid uses mp+sas)", modelName)
		return
	}

	release := s.acquire(w, r)
	if release == nil {
		return
	}
	defer release()

	// The terminal event of this request's single cell tells us where the
	// outcome came from; the request hook is the attribution seam.
	var (
		mu   sync.Mutex
		last runner.Event
		seen bool
	)
	ctx := runner.WithRequestHook(r.Context(), func(ev runner.Event) {
		if ev.Kind == runner.EventRetry {
			return
		}
		mu.Lock()
		last, seen = ev, true
		mu.Unlock()
	})

	cfg := machine.Default(procs)
	var res runner.Res
	switch app {
	case "mesh":
		res = s.eng.Mesh(ctx, model, cfg, o.MeshW)
	case "nbody":
		res = s.eng.NBody(ctx, model, cfg, o.NBodyW)
	case "cg":
		res = s.eng.CG(ctx, model, cfg, o.CGW)
	case "stencil":
		res = s.eng.Stencil(ctx, model, cfg, o.StencilW)
	case "hybrid":
		if modelName != "mp+sas" && modelName != "mp-sas" {
			jsonError(w, http.StatusBadRequest, "hybrid is a single-model app: GET /v1/cells/hybrid/mp+sas/%d", procs)
			return
		}
		res = s.eng.MeshHybrid(ctx, cfg, o.MeshW)
	default:
		jsonError(w, http.StatusNotFound, "unknown app %q (want mesh, nbody, cg, stencil, or hybrid)", app)
		return
	}

	resp := cellResponse{App: app, Model: modelName, Procs: procs, Quick: quick}
	mu.Lock()
	if seen {
		resp.Key, resp.Label, resp.Source = last.Key, last.Label, cellSource(last.Kind)
	}
	mu.Unlock()
	if res.Err != nil {
		resp.Err = res.Err.Error()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(resp)
		return
	}
	// The strict lossless codec from core — the same bytes the disk cache
	// stores — so a client round-trips exactly what the engine computed.
	if data, err := core.EncodeMetrics(res.M); err == nil {
		resp.Metrics = data
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep := s.eng.Report()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, rep.Table().String())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}

// cacheResponse is the GET /v1/cache document.
type cacheResponse struct {
	Enabled  bool                   `json:"enabled"`
	Dir      string                 `json:"dir,omitempty"`
	Fence    string                 `json:"fence,omitempty"`
	Counters *diskcache.Counters    `json:"counters,omitempty"`
	Verify   *diskcache.VerifyStats `json:"verify,omitempty"`
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	resp := cacheResponse{Enabled: s.dc != nil}
	if s.dc != nil {
		resp.Dir, resp.Fence = s.dc.Dir(), s.dc.Fence()
		c := s.dc.Counters()
		resp.Counters = &c
		if q := r.URL.Query().Get("verify"); q == "1" || q == "true" {
			st, err := s.dc.Verify()
			if err != nil {
				jsonError(w, http.StatusInternalServerError, "cache verify: %v", err)
				return
			}
			resp.Verify = &st
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, int(s.pending.Load()), len(s.slots), s.draining.Load())
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
	"o2k/internal/server"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// prepare runs once before any pass, untimed.
	prepare func(ctx context.Context, b *bench) error
	// open sets up one pass and times the set-up it counts. A non-nil
	// tracer asks for a traced pass.
	open func(b *bench, jobs int, tr *tracer) (*pass, error)
}

// pass is one set-up repetition of a workload.
type pass struct {
	setup time.Duration // opening the engine and cache (and, for a daemon, until it is healthy)
	eng   *runner.Engine
	cache *diskcache.Cache // nil without a disk cache
	opts  experiments.Opts
	exps  []string  // experiments the pass renders, for assembly timing
	cells []cellRef // default-machine cells, for the per-access ledger
	// run drives the timed operations; i numbers the pass, so each pass of
	// a seed gets its own submission order.
	run   func(ctx context.Context, i int)
	close func()
}

func workloads() []*workload { return []*workload{coldSuite(), warmServe()} }

// order returns the seeded permutation of n submissions for pass i.
func (b *bench) order(i, n int) []int {
	return rand.New(rand.NewPCG(uint64(b.seed), uint64(i))).Perm(n)
}

// openCache opens a disk cache at dir, through a timing filesystem when the
// pass is traced.
func openCache(dir string, tr *tracer) (*diskcache.Cache, error) {
	if tr == nil {
		return diskcache.Open(dir)
	}
	tr.fs = newTimingFS(diskcache.OSFS{})
	return diskcache.Open(dir, diskcache.WithFS(tr.fs))
}

func specNames() []string {
	var ns []string
	for _, s := range experiments.List() {
		ns = append(ns, s.Name)
	}
	return ns
}

// runSuite submits the named experiments to eng concurrently, in the given
// order, and returns their rendered outputs indexed like names.
func runSuite(ctx context.Context, eng *runner.Engine, o experiments.Opts, names []string, order []int) []rendered {
	outs := make([]rendered, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for _, i := range order {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables, err := experiments.RunOnCtx(ctx, eng, names[i], o)
			outs[i] = rendered{name: names[i], text: experiments.Render(tables)}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			outs[i].text = "FAILED(" + errs[i].Error() + ")"
		}
	}
	return outs
}

// checkExperiments counts each experiment as one operation, failed when its
// table carries a FAILED(...) cell.
func (b *bench) checkExperiments(outs []rendered) {
	for _, o := range outs {
		b.check(!hasFailedCell(o.text), "experiment %s has a FAILED cell", o.name)
	}
}

// checkDigests compares the outputs with the workload's golden data: one
// operation for the suite digest and, when the verdicts ran, one for them.
func (b *bench) checkDigests(outs []rendered) {
	var suite []rendered
	for _, o := range outs {
		if o.name != "verdicts" {
			suite = append(suite, o)
			continue
		}
		got, passes := textDigest(o.text), verdictPasses(o.text)
		b.check(got == b.gold.VerdictsSHA256 && passes == b.gold.VerdictsPass,
			"verdicts digest %s with %d PASS, want %s with %d", got, passes, b.gold.VerdictsSHA256, b.gold.VerdictsPass)
	}
	got := suiteDigest(suite)
	b.check(got == b.gold.SuiteSHA256, "suite digest %s, want %s", got, b.gold.SuiteSHA256)
}

// coldSuite is the full-scale `-exp all` cell set plus the verdicts, on a
// fresh engine and an empty disk cache: the reproduction's headline path
// and the write side of the cache.
func coldSuite() *workload {
	o := experiments.DefaultOpts()
	names := specNames()
	var seq atomic.Int64
	w := &workload{name: "cold-suite"}
	w.open = func(b *bench, jobs int, tr *tracer) (*pass, error) {
		// The empty cache directory is the workload's input, made before
		// the set-up clock starts.
		dir := filepath.Join(b.work, fmt.Sprintf("cold-%d", seq.Add(1)))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		cache, err := openCache(dir, tr)
		if err != nil {
			return nil, err
		}
		eng := runner.New(jobs)
		eng.SetCache(cache)
		if tr != nil {
			eng.SetHook(tr.hook)
		}
		return &pass{
			setup: time.Since(t0),
			eng:   eng, cache: cache, opts: o, exps: names, cells: suiteCells(o.Procs),
			run: func(ctx context.Context, i int) {
				outs := runSuite(ctx, eng, o, names, b.order(i, len(names)))
				b.checkExperiments(outs)
				b.checkDigests(outs)
			},
			close: func() { os.RemoveAll(dir) },
		}, nil
	}
	return w
}

// warmServe drives a fresh experiment daemon per pass over a disk cache
// filled once by a cold suite run: it simulates nothing, so it measures the
// server, the runner's memo and dedup, disk reads, decoding and rendering.
func warmServe() *workload {
	o := experiments.DefaultOpts()
	names := specNames()
	cells := suiteCells(o.Procs)
	var dir string
	expect := make(map[string][]byte) // GET path -> compact metrics JSON
	w := &workload{name: "warm-serve"}
	w.prepare = func(ctx context.Context, b *bench) error {
		dir = filepath.Join(b.work, "warm-cache")
		cache, err := diskcache.Open(dir)
		if err != nil {
			return err
		}
		eng := runner.New(b.jobs)
		eng.SetCache(cache)
		runSuite(ctx, eng, o, names, b.order(0, len(names)))
		for _, c := range cells {
			res := c.get(ctx, eng, o)
			if res.Err != nil {
				continue // no expectation: the GET fails its check
			}
			data, err := core.EncodeMetrics(res.M)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := json.Compact(&buf, data); err != nil {
				return err
			}
			expect[c.path()] = buf.Bytes()
		}
		return nil
	}
	w.open = func(b *bench, jobs int, tr *tracer) (*pass, error) {
		t0 := time.Now()
		cache, err := openCache(dir, tr)
		if err != nil {
			return nil, err
		}
		eng := runner.New(jobs)
		eng.SetCache(cache)
		cfg := server.Config{Engine: eng, Cache: cache}
		if tr != nil {
			cfg.Hook = tr.hook
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: server.New(cfg)}
		served := make(chan struct{})
		go func() {
			defer close(served)
			hs.Serve(ln)
		}()
		transport := &http.Transport{MaxIdleConnsPerHost: b.jobs}
		d := &daemon{b: b, base: "http://" + ln.Addr().String(), client: &http.Client{Transport: transport}, tr: tr, expect: expect}
		stop := func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			hs.Shutdown(sctx)
			cancel()
			<-served
			transport.CloseIdleConnections()
		}
		if err := d.waitHealthy(); err != nil {
			stop()
			return nil, err
		}
		return &pass{
			setup: time.Since(t0),
			eng:   eng, cache: cache, opts: o, exps: names, cells: cells,
			run:   func(ctx context.Context, i int) { d.drive(ctx, i, names, cells) },
			close: stop,
		}, nil
	}
	return w
}

// daemon is the client side of one warm-serve pass.
type daemon struct {
	b      *bench
	base   string
	client *http.Client
	tr     *tracer
	expect map[string][]byte
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("daemon never answered /healthz with 200")
		}
		time.Sleep(time.Millisecond)
	}
}

// drive sends every experiment once as POST /v1/experiments and every suite
// cell once as GET /v1/cells, in the pass's seeded order, from b.jobs
// closed-loop clients.
func (d *daemon) drive(ctx context.Context, i int, names []string, cells []cellRef) {
	n := len(names) + len(cells)
	order := d.b.order(i, n)
	outs := make([]rendered, len(names))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range d.b.jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				if r := order[k]; r < len(names) {
					outs[r] = d.post(ctx, names[r])
				} else {
					d.get(ctx, cells[r-len(names)])
				}
			}
		}()
	}
	wg.Wait()
	d.b.checkDigests(outs)
}

// streamLine is the part of an NDJSON experiment-stream line the check reads.
type streamLine struct {
	Type     string `json:"type"`
	Exit     int    `json:"exit"`
	Failures int    `json:"failures"`
	Output   string `json:"output"`
	Error    string `json:"error"`
}

func (d *daemon) post(ctx context.Context, name string) rendered {
	out := rendered{name: name}
	body, _ := json.Marshal(map[string]string{"exp": name}) // a string map always marshals
	t0 := time.Now()
	data, code, err := d.do(ctx, http.MethodPost, "/v1/experiments", body)
	lat := time.Since(t0)
	var last streamLine
	if err == nil {
		lines := bytes.Split(bytes.TrimSpace(data), []byte{'\n'})
		err = json.Unmarshal(lines[len(lines)-1], &last)
	}
	out.text = last.Output
	ok := err == nil && code/100 == 2 && last.Type == "result" && last.Exit == 0 && last.Failures == 0 && !hasFailedCell(last.Output)
	d.b.check(ok, "POST %s: status %d, err %v, last line %q/%s, exit %d, failures %d", name, code, err, last.Type, last.Error, last.Exit, last.Failures)
	if d.tr == nil {
		d.b.addLatency(&d.b.expLat, lat)
	}
	return out
}

func (d *daemon) get(ctx context.Context, c cellRef) {
	t0 := time.Now()
	data, code, err := d.do(ctx, http.MethodGet, c.path(), nil)
	lat := time.Since(t0)
	var doc struct {
		Source  string          `json:"source"`
		Metrics json.RawMessage `json:"metrics"`
		Err     string          `json:"err"`
	}
	if err == nil {
		err = json.Unmarshal(data, &doc)
	}
	var got bytes.Buffer
	if err == nil && len(doc.Metrics) > 0 {
		err = json.Compact(&got, doc.Metrics)
	}
	want, known := d.expect[c.path()]
	// A dedup waited on another request's load of the same cell; only a
	// compute means the daemon simulated.
	fromStore := doc.Source == "memo" || doc.Source == "disk" || doc.Source == "dedup"
	ok := err == nil && code/100 == 2 && doc.Err == "" && fromStore && known && bytes.Equal(got.Bytes(), want)
	d.b.check(ok, "GET %s: status %d, err %v, source %q, metrics match %v", c.path(), code, err, doc.Source, known && bytes.Equal(got.Bytes(), want))
	if d.tr == nil {
		d.b.addLatency(&d.b.cellLat, lat)
	} else if doc.Source == "memo" {
		d.tr.memoGet(float64(lat) / 1e6)
	}
}

// do sends one request and reads the whole response.
func (d *daemon) do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return data, resp.StatusCode, nil
}

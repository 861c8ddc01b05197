package server

// The experiment server's contract, tested over real HTTP (httptest):
// byte-identity of streamed output with the CLI, single-flight across
// concurrent clients, per-request cancellation on client disconnect,
// bounded admission with 429, drain semantics, and exactly-once cold
// compute across two daemons sharing one cache directory via leases.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
	"o2k/internal/runner/lease"
)

// The test-block experiment: one Standalone registry entry (so "all" and
// the golden bytes never see it) whose single cell blocks on a package-level
// gate. Tests reset the gate per engine; the cell key is constant, which is
// fine because every test uses a fresh engine.
var (
	blockMu      sync.Mutex
	blockGate    chan struct{}
	blockStarted chan struct{}
	blockCount   int
)

// resetBlock arms the test-block cell with a fresh gate and returns it with
// the compute-started signal channel.
func resetBlock() (gate chan struct{}, started chan struct{}) {
	blockMu.Lock()
	defer blockMu.Unlock()
	blockGate = make(chan struct{})
	blockStarted = make(chan struct{}, 64)
	blockCount = 0
	return blockGate, blockStarted
}

// openBlock replaces the gate with an already-open one, so the next compute
// finishes immediately.
func openBlock() {
	ch := make(chan struct{})
	close(ch)
	blockMu.Lock()
	blockGate = ch
	blockMu.Unlock()
}

func blockComputes() int {
	blockMu.Lock()
	defer blockMu.Unlock()
	return blockCount
}

func init() {
	experiments.Register(experiments.Spec{
		Name:       "test-block",
		Title:      "server-test cell that blocks on a gate",
		Standalone: true,
		Build: func(ctx context.Context, e *runner.Engine, o experiments.Opts) *core.Table {
			blockMu.Lock()
			gate, started := blockGate, blockStarted
			blockMu.Unlock()
			v, err := e.Do(ctx, "test-block-cell", "test-block", nil, func(cctx context.Context) (any, error) {
				blockMu.Lock()
				blockCount++
				blockMu.Unlock()
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-gate:
					return "ok", nil
				case <-cctx.Done():
					return nil, context.Cause(cctx)
				}
			})
			tb := &core.Table{Title: "test-block", Header: []string{"result"}}
			if err != nil {
				tb.AddRow("FAILED(" + err.Error() + ")")
			} else {
				tb.AddRow(v.(string))
			}
			return tb
		},
	})
}

// newTestServer stands up a Server over a fresh engine behind httptest.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *runner.Engine) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = runner.New(0)
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, cfg.Engine
}

// result is the final NDJSON line of an experiment stream.
type result struct {
	Type     string `json:"type"`
	Exit     int    `json:"exit"`
	Failures int    `json:"failures"`
	Output   string `json:"output"`
	Error    string `json:"error"`
}

// postExperiment submits body to the experiments endpoint and returns the
// response code, the cell lines, and the terminal result line.
func postExperiment(t *testing.T, url, body string) (int, []map[string]any, result) {
	t.Helper()
	resp, err := http.Post(url+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/experiments: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, nil, result{Error: string(data)}
	}
	var (
		cells []map[string]any
		res   result
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "cell":
			var m map[string]any
			json.Unmarshal(sc.Bytes(), &m)
			cells = append(cells, m)
		case "result", "error":
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatalf("bad terminal line %q: %v", sc.Text(), err)
			}
			res.Type = probe.Type
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return resp.StatusCode, cells, res
}

// waitCond polls cond for up to five seconds.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestExperimentsStreamMatchesCLIBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite twice")
	}
	ts, _, _ := newTestServer(t, Config{})
	code, cells, res := postExperiment(t, ts.URL, `{"exp":"all","quick":true}`)
	if code != http.StatusOK || res.Type != "result" {
		t.Fatalf("quick suite: code=%d terminal=%+v", code, res)
	}
	if res.Exit != 0 || res.Failures != 0 {
		t.Fatalf("quick suite failed: exit=%d failures=%d", res.Exit, res.Failures)
	}
	if len(cells) == 0 {
		t.Fatal("no cell events were streamed")
	}
	want := experiments.Render(experiments.RunAllCtx(context.Background(), runner.New(0), experiments.QuickOpts()))
	if res.Output != want {
		t.Fatalf("server output is not byte-identical to the CLI rendering:\nserver %d bytes, cli %d bytes", len(res.Output), len(want))
	}
}

func TestConcurrentIdenticalSubmissionsComputeOnce(t *testing.T) {
	gate, started := resetBlock()
	ts, _, eng := newTestServer(t, Config{MaxInflight: 16})

	const n = 8
	type resp struct {
		code int
		res  result
	}
	results := make(chan resp, n)
	for i := 0; i < n; i++ {
		go func() {
			code, _, res := postExperiment(t, ts.URL, `{"exp":"test-block"}`)
			results <- resp{code, res}
		}()
	}
	<-started
	// All other submissions must be waiting on the one in-flight compute.
	waitCond(t, "7 deduplicated requests", func() bool {
		for _, c := range eng.Report().Cells {
			if c.Label == "test-block" && c.Dedups >= n-1 {
				return true
			}
		}
		return false
	})
	close(gate)
	var first string
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK || r.res.Exit != 0 || !strings.Contains(r.res.Output, "ok") {
			t.Fatalf("client %d: code=%d res=%+v", i, r.code, r.res)
		}
		if first == "" {
			first = r.res.Output
		} else if r.res.Output != first {
			t.Fatalf("clients received different bytes")
		}
	}
	if got := blockComputes(); got != 1 {
		t.Fatalf("%d identical submissions ran the compute %d times, want exactly 1", n, got)
	}
}

func TestClientDisconnectAbortsOnlyItsCells(t *testing.T) {
	_, started := resetBlock()
	ts, _, eng := newTestServer(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/experiments",
			strings.NewReader(`{"exp":"test-block"}`))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	<-started

	// Mid-stream disconnect: the request's only cell loses its last
	// reference, is aborted, and retired from the engine.
	cancel()
	<-done
	waitCond(t, "aborted cell retirement", func() bool { return eng.Report().Unique == 0 })

	// The key recomputes for the next client as if it had never been asked.
	openBlock()
	code, _, res := postExperiment(t, ts.URL, `{"exp":"test-block"}`)
	if code != http.StatusOK || res.Exit != 0 || !strings.Contains(res.Output, "ok") {
		t.Fatalf("post-disconnect request: code=%d res=%+v", code, res)
	}
	if got := blockComputes(); got != 2 {
		t.Fatalf("compute ran %d times, want 2 (aborted attempt + recompute)", got)
	}
	if rep := eng.Report(); rep.Unique != 1 || rep.Failures != 0 {
		t.Fatalf("engine report after recompute: unique=%d failures=%d", rep.Unique, rep.Failures)
	}
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

func TestAdmissionQueueOverflowAnswers429(t *testing.T) {
	gate, started := resetBlock()
	ts, _, _ := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})

	results := make(chan int, 2)
	post := func() {
		code, _, _ := postExperiment(t, ts.URL, `{"exp":"test-block"}`)
		results <- code
	}
	go post() // request A: takes the run slot, blocks on the gate
	<-started
	go post() // request B: waits in the queue
	waitCond(t, "one queued request", func() bool {
		return strings.Contains(scrapeMetrics(t, ts.URL), "o2k_requests_pending 2")
	})

	// Request C: beyond inflight+queue — refused, fast.
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(`{"exp":"test-block"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request got %d (%s), want 429", resp.StatusCode, body)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("admitted request %d finished with %d", i, code)
		}
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), `o2k_admission_rejected_total{reason="queue_full"} 1`) {
		t.Fatal("queue_full rejection not counted in /metrics")
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	ts, s, _ := newTestServer(t, Config{})
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}
	s.Drain()
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", resp.StatusCode)
	}
	code, _, res := postExperiment(t, ts.URL, `{"exp":"test-block"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST after drain: code=%d res=%+v, want 503", code, res)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "o2k_draining 1") {
		t.Fatal("drain state not reflected in /metrics")
	}
}

func TestCellEndpointSourcesAndValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})
	get := func(path string) (int, cellResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cr cellResponse
		json.NewDecoder(resp.Body).Decode(&cr)
		return resp.StatusCode, cr
	}

	code, cr := get("/v1/cells/stencil/mp/2?quick=1")
	if code != http.StatusOK || cr.Source != "compute" || len(cr.Metrics) == 0 {
		t.Fatalf("cold cell: code=%d resp=%+v", code, cr)
	}
	if m, err := core.DecodeMetrics(cr.Metrics); err != nil || m.Procs != 2 {
		t.Fatalf("metrics payload does not round-trip the strict codec: %v %+v", err, m)
	}
	if code, cr = get("/v1/cells/stencil/mp/2?quick=1"); code != http.StatusOK || cr.Source != "memo" {
		t.Fatalf("warm cell: code=%d source=%q, want memo", code, cr.Source)
	}
	if code, cr = get("/v1/cells/hybrid/mp+sas/2?quick=1"); code != http.StatusOK || cr.Source != "compute" {
		t.Fatalf("hybrid cell: code=%d resp=%+v", code, cr)
	}

	for path, want := range map[string]int{
		"/v1/cells/warp/mp/2":        http.StatusNotFound,
		"/v1/cells/stencil/openmp/2": http.StatusBadRequest,
		"/v1/cells/stencil/mp/zero":  http.StatusBadRequest,
		"/v1/cells/mesh/mp+sas/2":    http.StatusBadRequest,
	} {
		if code, _ := get(path); code != want {
			t.Errorf("GET %s = %d, want %d", path, code, want)
		}
	}
}

func TestReportCacheAndMetricsEndpoints(t *testing.T) {
	dir := t.TempDir()
	dc, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.New(0)
	eng.SetCache(dc)
	ts, _, _ := newTestServer(t, Config{Engine: eng, Cache: dc})

	// Populate one cell so every surface has something to show.
	if resp, _ := http.Get(ts.URL + "/v1/cells/stencil/sas/2?quick=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up cell request: %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if rep["unique_cells"].(float64) < 1 {
		t.Fatalf("report shows no cells: %v", rep)
	}
	resp, _ = http.Get(ts.URL + "/v1/report?format=text")
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "Run report") {
		t.Fatalf("text report missing header:\n%s", text)
	}

	resp, _ = http.Get(ts.URL + "/v1/cache?verify=1")
	var cache cacheResponse
	json.NewDecoder(resp.Body).Decode(&cache)
	resp.Body.Close()
	if !cache.Enabled || cache.Dir != dir || cache.Counters == nil || cache.Verify == nil {
		t.Fatalf("cache document incomplete: %+v", cache)
	}
	if cache.Verify.Bad != 0 {
		t.Fatalf("fresh cache verified bad: %+v", cache.Verify)
	}

	// A memory-only server reports the cache as disabled.
	ts2, _, _ := newTestServer(t, Config{})
	resp, _ = http.Get(ts2.URL + "/v1/cache")
	var nocache cacheResponse
	json.NewDecoder(resp.Body).Decode(&nocache)
	resp.Body.Close()
	if nocache.Enabled {
		t.Fatalf("memory-only server claims a cache: %+v", nocache)
	}

	m := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"o2k_build_info{",
		`o2k_cell_events_total{kind="compute"}`,
		`o2k_http_requests_total{code="200"}`,
		"o2k_requests_pending 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, m)
		}
	}
}

func TestTwoServersSharingCacheComputeEachCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick experiment on two engines")
	}
	dir := t.TempDir()
	var (
		countMu  sync.Mutex
		computes = map[string]int{}
	)
	countHook := func(ev runner.Event) {
		if ev.Kind == runner.EventCompute {
			countMu.Lock()
			computes[ev.Key]++
			countMu.Unlock()
		}
	}
	mk := func() *httptest.Server {
		dc, err := diskcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := runner.New(4)
		eng.SetCache(dc)
		eng.SetLeases(lease.New(lease.Config{Dir: dir}))
		ts, _, _ := newTestServer(t, Config{Engine: eng, Cache: dc, Hook: countHook})
		return ts
	}
	a, b := mk(), mk()

	type out struct {
		code int
		res  result
	}
	results := make(chan out, 2)
	for _, ts := range []*httptest.Server{a, b} {
		go func(url string) {
			code, _, res := postExperiment(t, url, `{"exp":"regular-control","quick":true}`)
			results <- out{code, res}
		}(ts.URL)
	}
	var outputs []string
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK || r.res.Exit != 0 {
			t.Fatalf("daemon %d: code=%d res=%+v", i, r.code, r.res)
		}
		outputs = append(outputs, r.res.Output)
	}
	if outputs[0] != outputs[1] {
		t.Fatal("the two daemons rendered different bytes")
	}
	// Exactly-once is a disk-cache property: only persisted cells can be
	// adopted across processes. Memory-only cells (e.g. the n-body per-P
	// plans, which deliberately carry no codec) compute once per daemon.
	probe, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	countMu.Lock()
	defer countMu.Unlock()
	if len(computes) == 0 {
		t.Fatal("no computes recorded — the hook is not wired")
	}
	persisted := 0
	for key, n := range computes {
		if _, ok := probe.Get(key); !ok {
			continue
		}
		persisted++
		if n != 1 {
			t.Errorf("cell %s computed %d times across the two daemons, want exactly 1", key, n)
		}
	}
	if persisted == 0 {
		t.Fatal("no persisted cells were computed — the cache is not wired")
	}
}

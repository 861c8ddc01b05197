// Command perfledger is the repository's benchmark. It runs one named
// workload in-process through the public entry points of the experiments
// registry, the runner, the disk cache and the experiment server, checks
// every output against recorded digests, and prints its metrics.
//
//	perfledger --workload cold-suite|warm-serve \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures wall time, set-up time and heap allocation per
// pass; with --trace 1 it also runs traced passes and prints the per-layer
// ledger. The last line of standard output is one JSON object; README.md in
// this directory describes the metrics and the workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupTrials is how many extra set-ups a run times besides those of its
// passes, so the set-up median rests on enough samples even when a run has
// only two or three passes.
const setupTrials = 31

// bench is the state of one invocation.
type bench struct {
	seed   int64
	budget time.Duration
	jobs   int    // nproc: the worker-pool size and the client count
	work   string // scratch directory for disk caches
	gold   golden
	log    io.Writer

	mu                sync.Mutex
	attempted, failed int
	cellLat, expLat   []float64 // warm-serve request latencies, ms
}

// check counts one operation, failed unless ok; the first failures are
// described on the log.
func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if ok {
		return
	}
	b.failed++
	if b.failed <= 10 {
		fmt.Fprintf(b.log, "perfledger: FAIL "+format+"\n", args...)
	}
}

func (b *bench) addLatency(dst *[]float64, d time.Duration) {
	b.mu.Lock()
	*dst = append(*dst, float64(d)/1e6)
	b.mu.Unlock()
}

// passStat is what one pass measured.
type passStat struct {
	setup, wall, allocMB float64
	ledger               ledger // traced passes only
}

func heapAllocBytes() uint64 { return readUint("/gc/heap/allocs:bytes") }

func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// measure runs passes of w, at least one, until budget has elapsed.
func (b *bench) measure(ctx context.Context, w *workload, jobs int, traced bool, budget time.Duration) []passStat {
	var stats []passStat
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		var tr *tracer
		if traced {
			tr = &tracer{}
		}
		// Each pass starts from an empty heap: the previous pass's garbage
		// is collected and returned to the OS, so it adds nothing to this
		// pass's GC work.
		debug.FreeOSMemory()
		live, goroutines := float64(readUint("/gc/heap/live:bytes"))/1e6, runtime.NumGoroutine()
		p, err := w.open(b, jobs, tr)
		if err != nil {
			b.check(false, "%s set-up: %v", w.name, err)
			continue
		}
		a0 := heapAllocBytes()
		t1 := time.Now()
		p.run(ctx, i)
		st := passStat{setup: p.setup.Seconds(), wall: time.Since(t1).Seconds(), allocMB: float64(heapAllocBytes()-a0) / 1e6}
		if traced {
			st.ledger = passLedger(ctx, p, tr, jobs == 1)
		}
		p.close()
		fmt.Fprintf(b.log, "perfledger: %s pass %d (jobs %d, traced %v): %d goroutines and %.1f MB live heap before, setup %.6f s, wall %.4f s, alloc %.1f MB\n",
			w.name, i, jobs, traced, goroutines, live, st.setup, st.wall, st.allocMB)
		stats = append(stats, st)
	}
	return stats
}

// setupOnly times n set-ups that run no operations.
func (b *bench) setupOnly(w *workload, jobs, n int) []float64 {
	var setups []float64
	for range n {
		p, err := w.open(b, jobs, nil)
		if err != nil {
			b.check(false, "%s set-up: %v", w.name, err)
			continue
		}
		setups = append(setups, p.setup.Seconds())
		p.close()
	}
	return setups
}

// passLedger turns a traced pass into its ledger entries; tiled passes ran
// on one worker, so their compute spans tile into self times.
func passLedger(ctx context.Context, p *pass, tr *tracer, tiled bool) ledger {
	tr.off.Store(true)
	tr.mu.Lock()
	evs := slices.Clone(tr.events)
	memoGets := slices.Clone(tr.memoGets)
	tr.mu.Unlock()
	var ops []fsOp
	if tr.fs != nil {
		ops = tr.fs.snapshot()
	}
	l := ledger{}
	self := eventLedger(l, evs, ops, tiled)
	l["runner.failures"] = entry{float64(p.eng.Report().Failures), 1}
	if p.cache != nil {
		c := p.cache.Counters()
		l["diskcache.hits"] = entry{float64(c.Hits), 1}
		l["diskcache.misses"] = entry{float64(c.Misses), 1}
	}
	if len(memoGets) > 0 {
		l["server.memo_cell_ms"] = entry{median(memoGets), len(memoGets)}
	}
	if tiled {
		accessLedger(ctx, l, p, self)
	}
	assemblyLedger(ctx, l, p)
	return l
}

// memWatch samples the live heap until stopped and reports its peak.
type memWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchMemory() *memWatch {
	// Writing 5 to clear_refs resets the peak RSS, so VmHWM covers only
	// what follows; without it VmHWM is the process peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	m := &memWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			m.peak = max(m.peak, readUint("/gc/heap/live:bytes"))
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// finish stops sampling and returns the peak live heap and peak RSS in MB.
func (m *memWatch) finish() (liveMB, rssMB float64) {
	close(m.stop)
	<-m.done
	return float64(m.peak) / 1e6, float64(peakRSSKiB()) * 1024 / 1e6
}

// peakRSSKiB reads VmHWM from /proc/self/status; 0 where it is unavailable.
func peakRSSKiB() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				n, _ := strconv.ParseUint(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// endToEndMetrics are the metrics of an untraced run: wall time of one
// pass, set-up time, and heap bytes allocated by one pass.
var endToEndMetrics = []metricDef{{"wall_s", "s"}, {"setup_s", "s"}, {"alloc_mb", "MB"}}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// column collects one measured field over passes.
func column(st []passStat, f func(passStat) float64) []float64 {
	var xs []float64
	for _, s := range st {
		xs = append(xs, f(s))
	}
	return xs
}

func wallOf(s passStat) float64 { return s.wall }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfledger", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: cold-suite or warm-serve")
	seed := fl.Int64("seed", 1, "seed of the submission order")
	seconds := fl.Int("seconds", 20, "seconds of measured passes (at least one pass runs)")
	trace := fl.Int("trace", 0, "1 adds traced passes and prints the per-layer ledger")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fl.NArg() > 0 {
		fmt.Fprintf(stderr, "perfledger: want --workload cold-suite|warm-serve, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintf(stderr, "perfledger: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp("", "perfledger-")
	if err != nil {
		fmt.Fprintf(stderr, "perfledger: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := &bench{seed: *seed, budget: time.Duration(*seconds) * time.Second, jobs: runtime.NumCPU(), work: work, gold: gold[w.name], log: stderr}
	ctx := context.Background()
	fmt.Fprintf(stdout, "perfledger %s: seed %d, %d s, trace %d, jobs %d, %s/%s %s, %d CPUs\n",
		w.name, *seed, *seconds, *trace, b.jobs, runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU())
	if w.prepare != nil {
		if err := w.prepare(ctx, b); err != nil {
			b.check(false, "%s prepare: %v", w.name, err)
		}
	}

	// One unreported warm-up pass. The first pass of a process allocates
	// from fresh OS memory, which the runtime need not zero; later passes
	// reuse memory it must zero, and on the mesh sweep to P=1024 they take
	// 20-35% longer. Only later passes are alike, so only they are
	// reported. The warm-up's checks still count. The set-ups then run on
	// an emptied heap, as each pass's own set-up does.
	b.measure(ctx, w, b.jobs, false, 0)
	debug.FreeOSMemory()
	setups := b.setupOnly(w, b.jobs, setupTrials)
	plain := b.measure(ctx, w, b.jobs, false, b.budget)
	setups = append(setups, column(plain, func(s passStat) float64 { return s.setup })...)
	res := result{Metrics: map[string]metricValue{}}
	line := func(name string, v float64, unit, note string) {
		fmt.Fprintf(stdout, "%-32s %14.6g %-5s %s\n", name, v, unit, note)
	}
	samples := map[string][]float64{
		"wall_s":   column(plain, wallOf),
		"setup_s":  setups,
		"alloc_mb": column(plain, func(s passStat) float64 { return s.allocMB }),
	}
	e2e := map[string]metricValue{}
	for _, m := range endToEndMetrics {
		xs := samples[m.name]
		e2e[m.name] = metricValue{median(xs), m.unit}
		line(m.name, median(xs), m.unit, fmt.Sprintf("median of %d samples", len(xs)))
	}
	b.printLatencies(line)

	if *trace == 0 {
		res.Metrics = e2e
	} else {
		mw := watchMemory()
		traced := b.measure(ctx, w, b.jobs, true, b.budget)
		var tiled []passStat
		if b.jobs > 1 {
			tiled = b.measure(ctx, w, 1, true, 0)
		}
		liveMB, rssMB := mw.finish()
		final := aggregate(traced, tiled)
		final["mem.peak_live_heap_mb"] = entry{liveMB, 1}
		final["mem.peak_rss_mb"] = entry{rssMB, 1}
		final["trace.overhead_s"] = entry{median(column(traced, wallOf)) - median(column(plain, wallOf)), len(traced)}
		for _, m := range layerMetrics() {
			e := final[m.name]
			res.Metrics[m.name] = metricValue{e.value, m.unit}
			line(m.name, e.value, m.unit, fmt.Sprintf("n=%d", e.n))
		}
	}

	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0 && b.attempted > 0
	line("fail_ratio", float64(b.failed)/float64(max(b.attempted, 1)), "", fmt.Sprintf("%d of %d operations failed", b.failed, b.attempted))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfledger: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// printLatencies prints warm-serve's request latencies: the median and the
// top percentile, each only when enough samples lie beyond it.
func (b *bench) printLatencies(line func(name string, v float64, unit, note string)) {
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"cell_p50_ms", b.cellLat, 0.50}, {"cell_p99_ms", b.cellLat, 0.99},
		{"exp_p50_ms", b.expLat, 0.50}, {"exp_p90_ms", b.expLat, 0.90},
	} {
		if len(q.xs) == 0 {
			continue
		}
		if v, ok := percentile(q.xs, q.p); ok {
			line(q.name, v, "ms", fmt.Sprintf("n=%d", len(q.xs)))
		} else {
			line(q.name, 0, "ms", fmt.Sprintf("not reported: n=%d leaves fewer than %d samples beyond it", len(q.xs), minBeyond))
		}
	}
}

// aggregate takes each per-layer metric's median over the traced passes; the
// plan and run self times come from the jobs-1 passes when the workload
// runs wider. A metric a pass did not record counts as zero there.
func aggregate(traced, tiled []passStat) ledger {
	out := ledger{}
	for _, m := range layerMetrics() {
		src := traced
		if isTiled(m.name) && len(tiled) > 0 {
			src = tiled
		}
		var vs, ns []float64
		for _, s := range src {
			e := s.ledger[m.name]
			vs = append(vs, e.value)
			ns = append(ns, float64(e.n))
		}
		out[m.name] = entry{median(vs), int(median(ns))}
	}
	return out
}

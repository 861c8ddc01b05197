package main

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/runner"
)

// tracer collects one traced pass: the engine's cell events, the timing
// filesystem's calls, and the memoized-GET latencies the clients see.
type tracer struct {
	off atomic.Bool // set once the pass ends, so follow-up probes stay out

	mu       sync.Mutex
	events   []runner.Event
	memoGets []float64 // ms
	fs       *timingFS // nil when the pass has no disk cache
}

func (t *tracer) hook(ev runner.Event) {
	if t.off.Load() {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

func (t *tracer) memoGet(ms float64) {
	t.mu.Lock()
	t.memoGets = append(t.memoGets, ms)
	t.mu.Unlock()
}

// cellID is what a runner label says about a cell: the application, the
// model (run tier only), the processor count and the tier.
type cellID struct {
	app, model, tier string
	procs            int
}

// parseLabel reads the labels of internal/runner's typed cell helpers:
// "mesh structure", "mesh plans P=4", "mesh CC-SAS P=4", "mesh MP+SAS P=64",
// "n-body structure", "n-body plans P=4", "cg mesh", "cg plan P=4",
// "stencil MP P=4".
func parseLabel(label string) (cellID, bool) {
	f := strings.Fields(label)
	if len(f) < 2 {
		return cellID{}, false
	}
	var id cellID
	switch f[0] {
	case "mesh", "cg", "stencil":
		id.app = f[0]
	case "n-body":
		id.app = "nbody"
	default:
		return cellID{}, false
	}
	if len(f) == 2 {
		if f[1] == "structure" || (id.app == "cg" && f[1] == "mesh") {
			id.tier = "structure"
			return id, true
		}
		return cellID{}, false
	}
	p, ok := strings.CutPrefix(f[2], "P=")
	if !ok || len(f) != 3 {
		return cellID{}, false
	}
	n, err := strconv.Atoi(p)
	if err != nil {
		return cellID{}, false
	}
	id.procs = n
	switch f[1] {
	case "plans", "plan":
		id.tier = "plans"
		return id, true
	case "MP":
		id.model = "mp"
	case "SHMEM":
		id.model = "shmem"
	case "CC-SAS":
		id.model = "sas"
	case "MP+SAS":
		id.model = "mp-sas"
	default:
		return cellID{}, false
	}
	id.tier = "run"
	return id, true
}

// runPairs are the application × model pairs the full suite simulates.
var runPairs = [][2]string{
	{"mesh", "mp"}, {"mesh", "shmem"}, {"mesh", "sas"}, {"mesh", "mp-sas"},
	{"nbody", "mp"}, {"nbody", "shmem"}, {"nbody", "sas"},
	{"cg", "mp"}, {"cg", "shmem"}, {"cg", "sas"},
	{"stencil", "mp"}, {"stencil", "sas"},
}

type metricDef struct{ name, unit string }

// layerMetrics is the per-layer ledger a traced run prints, in order.
func layerMetrics() []metricDef {
	var ms []metricDef
	for _, app := range []string{"mesh", "nbody", "cg"} {
		ms = append(ms, metricDef{"plan." + app + ".structure_s", "s"}, metricDef{"plan." + app + ".plans_s", "s"})
	}
	for _, p := range runPairs {
		pre := "run." + p[0] + "." + p[1] + "."
		ms = append(ms,
			metricDef{pre + "host_s", "s"}, metricDef{pre + "ns_per_access", "ns"},
			metricDef{pre + "accesses", "count"}, metricDef{pre + "msgs", "count"})
	}
	for _, k := range []string{"metrics", "plan"} {
		ms = append(ms, metricDef{"codec." + k + ".encode_s", "s"}, metricDef{"codec." + k + ".decode_s", "s"},
			metricDef{"codec." + k + ".bytes", "B"})
	}
	ms = append(ms,
		metricDef{"diskcache.read_s", "s"}, metricDef{"diskcache.write_s", "s"}, metricDef{"diskcache.rename_s", "s"},
		metricDef{"diskcache.bytes_read", "B"}, metricDef{"diskcache.bytes_written", "B"},
		metricDef{"diskcache.hits", "count"}, metricDef{"diskcache.misses", "count"},
		metricDef{"runner.computes", "count"}, metricDef{"runner.memo_hits", "count"}, metricDef{"runner.dedups", "count"},
		metricDef{"runner.disk_hits", "count"}, metricDef{"runner.retries", "count"}, metricDef{"runner.failures", "count"},
		metricDef{"runner.dedup_wait_s", "s"},
		metricDef{"experiments.assemble_s", "s"}, metricDef{"experiments.render_s", "s"},
		metricDef{"server.memo_cell_ms", "ms"},
		metricDef{"mem.peak_rss_mb", "MB"}, metricDef{"mem.peak_live_heap_mb", "MB"},
		metricDef{"trace.overhead_s", "s"},
	)
	return ms
}

// entry is one ledger value with the number of samples behind it.
type entry struct {
	value float64
	n     int
}

// ledger maps per-layer metric names to their values for one pass.
type ledger map[string]entry

func (l ledger) add(name string, v float64) {
	e := l[name]
	e.value += v
	e.n++
	l[name] = e
}

// isTiled reports whether a metric comes from the jobs-1 self-time tiling.
func isTiled(name string) bool {
	return strings.HasPrefix(name, "plan.") || strings.HasPrefix(name, "run.")
}

// codecKind classifies a cell tier by the codec that persists it.
func codecKind(tier string) string {
	if tier == "run" {
		return "metrics"
	}
	return "plan"
}

// eventLedger derives the runner, disk-cache and codec entries of one pass
// from its cell events and filesystem calls; with tiled it also derives the
// plan and run self times. It returns the self time of each computed cell
// by key (nil unless tiled), for the per-access figures.
func eventLedger(l ledger, evs []runner.Event, ops []fsOp, tiled bool) map[string]time.Duration {
	ids := make(map[string]cellID)
	computeEnd := make(map[string]time.Time)
	var computes []runner.Event
	for _, ev := range evs {
		if id, ok := parseLabel(ev.Label); ok {
			ids[ev.Key] = id
		}
		switch ev.Kind {
		case runner.EventCompute:
			l.add("runner.computes", 1)
			computes = append(computes, ev)
			computeEnd[ev.Key] = ev.Start.Add(ev.Dur)
		case runner.EventMemoHit:
			l.add("runner.memo_hits", 1)
		case runner.EventDedup:
			l.add("runner.dedups", 1)
			l.add("runner.dedup_wait_s", ev.Dur.Seconds())
		case runner.EventDiskHit:
			l.add("runner.disk_hits", 1)
		case runner.EventRetry:
			l.add("runner.retries", 1)
		}
	}

	readDur := make(map[string]time.Duration)
	firstWrite := make(map[string]time.Time)
	for _, op := range ops {
		kind := "plan"
		if id, ok := ids[op.key]; ok {
			kind = codecKind(id.tier)
		}
		switch op.kind {
		case fsRead:
			readDur[op.key] += op.dur
			l.add("diskcache.read_s", op.dur.Seconds())
			l.add("diskcache.bytes_read", float64(op.bytes))
			l.add("codec."+kind+".bytes", float64(op.bytes))
		case fsWrite:
			if _, ok := firstWrite[op.key]; !ok {
				firstWrite[op.key] = op.start
			}
			l.add("diskcache.write_s", op.dur.Seconds())
			l.add("diskcache.bytes_written", float64(op.bytes))
			l.add("codec."+kind+".bytes", float64(op.bytes))
		case fsRename:
			l.add("diskcache.rename_s", op.dur.Seconds())
		}
	}
	// Decode time is the disk-hit span minus its read; encode time is the
	// gap between a compute's end and the first write of its entry.
	for _, ev := range evs {
		if ev.Kind != runner.EventDiskHit {
			continue
		}
		if id, ok := ids[ev.Key]; ok {
			l.add("codec."+codecKind(id.tier)+".decode_s", max(ev.Dur-readDur[ev.Key], 0).Seconds())
		}
	}
	for key, w := range firstWrite {
		end, ok := computeEnd[key]
		if id, known := ids[key]; ok && known {
			l.add("codec."+codecKind(id.tier)+".encode_s", max(w.Sub(end), 0).Seconds())
		}
	}

	if !tiled {
		return nil
	}
	spans := make([]span, len(computes))
	for i, ev := range computes {
		spans[i] = span{ev.Start, ev.Start.Add(ev.Dur)}
	}
	self := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		ev := computes[i]
		id, ok := ids[ev.Key]
		if !ok {
			continue
		}
		switch id.tier {
		case "structure", "plans":
			l.add("plan."+id.app+"."+id.tier+"_s", d.Seconds())
		case "run":
			l.add("run."+id.app+"."+id.model+".host_s", d.Seconds())
			self[ev.Key] += d
		}
	}
	return self
}

// accessLedger adds the simulated-work counts of the default-machine cells
// computed in the pass, and the host nanoseconds per simulated access over
// the same cells. It re-requests each cell from the (now memoized) engine
// and learns its key from the request's terminal event.
func accessLedger(ctx context.Context, l ledger, p *pass, self map[string]time.Duration) {
	host := make(map[string]time.Duration)
	for _, ref := range p.cells {
		var key string
		rctx := runner.WithRequestHook(ctx, func(ev runner.Event) { key = ev.Key })
		res := ref.get(rctx, p.eng, p.opts)
		d, computed := self[key]
		if res.Err != nil || !computed {
			continue
		}
		pre := "run." + ref.app + "." + ref.model + "."
		c := res.M.Counters
		host[pre] += d
		l.add(pre+"accesses", float64(c.CacheHits+c.LocalMisses+c.RemoteMisses+c.CohMisses))
		l.add(pre+"msgs", float64(c.MsgsSent))
	}
	for pre, d := range host {
		if acc := l[pre+"accesses"]; acc.value > 0 {
			l[pre+"ns_per_access"] = entry{float64(d.Nanoseconds()) / acc.value, acc.n}
		}
	}
}

// assemblyLedger times RunOnCtx of each of the pass's experiments on its
// fully memoized engine, and Render of the resulting tables.
func assemblyLedger(ctx context.Context, l ledger, p *pass) {
	var all []*core.Table
	for _, name := range p.exps {
		t0 := time.Now()
		tables, err := experiments.RunOnCtx(ctx, p.eng, name, p.opts)
		l.add("experiments.assemble_s", time.Since(t0).Seconds())
		if err == nil {
			all = append(all, tables...)
		}
	}
	t0 := time.Now()
	_ = experiments.Render(all)
	l.add("experiments.render_s", time.Since(t0).Seconds())
}

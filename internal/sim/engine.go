package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Engine is the execution strategy behind a Group: it decides how the n
// SPMD bodies of one Run are multiplexed onto the host. Every engine must
// preserve the package's core contract — virtual times, phase attribution,
// counters, traces, and failure semantics (ProcPanic, StallError, root-cause
// selection) are identical across engines — so an application cannot tell
// which engine it runs under except by host-side speed and memory footprint.
//
// Two engines exist:
//
//   - EventEngine (the default): a single-threaded virtual-time scheduler
//     that runs procs as resumable continuations and replaces OS-level
//     blocking at rendezvous points with a (virtual-time, rank) event heap.
//     See event.go.
//   - GoroutineEngine: the original goroutine-per-proc gang, kept as the
//     differential reference and for workloads that want real host
//     parallelism inside one Group.
//
// Engine implementations live in this package; the interface is sealed by
// the unexported run method.
type Engine interface {
	// Name returns the engine's flag-facing name ("event", "goroutine").
	Name() string
	// run executes body once per processor of g and returns when all have
	// finished, re-panicking with the root-cause *ProcPanic if any failed.
	run(g *Group, body func(*Proc))
}

// defaultEngine holds the process-wide engine used by NewGroup. The zero
// state means EventEngine; SetDefaultEngine installs an override.
var defaultEngine atomic.Pointer[Engine]

// DefaultEngine returns the engine NewGroup currently hands to new groups.
func DefaultEngine() Engine {
	if p := defaultEngine.Load(); p != nil {
		return *p
	}
	return EventEngine()
}

// SetDefaultEngine installs e as the process-wide default for subsequent
// NewGroup calls and returns the previous default. Existing groups keep the
// engine they were created with.
func SetDefaultEngine(e Engine) Engine {
	if e == nil {
		panic("sim: nil default engine")
	}
	prev := DefaultEngine()
	defaultEngine.Store(&e)
	return prev
}

// EngineNames lists the valid engine names accepted by EngineByName, in
// preference order.
func EngineNames() []string { return []string{"event", "goroutine"} }

// EngineByName resolves a flag-facing engine name.
func EngineByName(name string) (Engine, error) {
	switch name {
	case "event":
		return EventEngine(), nil
	case "goroutine":
		return GoroutineEngine(), nil
	}
	return nil, fmt.Errorf("sim: unknown engine %q (valid: event, goroutine)", name)
}

// preferRootCause reports whether pp should replace first as the panic a Run
// re-raises. The choice is deterministic across engines and runs: a non-stall
// panic beats a StallError (stalls are downstream symptoms of the real
// failure), then the lowest rank wins.
func preferRootCause(pp, first *ProcPanic) bool {
	if first == nil {
		return true
	}
	isStall := func(v any) bool { _, ok := v.(*StallError); return ok }
	return (isStall(first.Value) && !isStall(pp.Value)) ||
		(isStall(first.Value) == isStall(pp.Value) && pp.Rank < first.Rank)
}

// goroutineEngine is the original execution strategy: one persistent worker
// goroutine per processor, blocking on channels and condition variables at
// rendezvous points, with the wall-clock stall watchdog (watchdog.go) as the
// liveness backstop.
//
// The gang's worker goroutines are created lazily on the first Run and
// persist across Run calls: experiments invoke Run once per adaptation cycle
// or time step, and respawning P goroutines per region was measurable
// scheduler churn. These goroutines hold no reference to the Group itself — only
// to their Proc and channels — so an abandoned Group is collected normally;
// a runtime cleanup closes the work channels and the goroutines exit.
type goroutineEngine struct{}

// GoroutineEngine returns the goroutine-per-proc gang engine.
func GoroutineEngine() Engine { return goroutineEngine{} }

func (goroutineEngine) Name() string { return "goroutine" }

func (goroutineEngine) run(g *Group, body func(*Proc)) {
	if g.work == nil {
		g.startGang()
	}
	for _, ch := range g.work {
		ch <- body
	}
	var first *ProcPanic
	for range g.procs {
		pp := <-g.res
		if pp != nil && preferRootCause(pp, first) {
			first = pp
		}
	}
	if first != nil {
		panic(first)
	}
}

// startGang spawns the persistent worker gang.
func (g *Group) startGang() {
	g.res = make(chan *ProcPanic, len(g.procs))
	g.work = make([]chan func(*Proc), len(g.procs))
	for i, p := range g.procs {
		ch := make(chan func(*Proc))
		g.work[i] = ch
		go gangWorker(p, ch, g.res)
	}
	runtime.AddCleanup(g, func(work []chan func(*Proc)) {
		for _, ch := range work {
			close(ch)
		}
	}, g.work)
}

// gangWorker executes bodies for one processor until its channel closes.
func gangWorker(p *Proc, work <-chan func(*Proc), res chan<- *ProcPanic) {
	for body := range work {
		res <- runBody(p, body)
	}
}

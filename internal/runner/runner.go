// Package runner is the concurrent experiment engine behind the experiments
// registry. It decomposes every table and figure of the evaluation into
// *simulation cells* — one (application, model, machine config, workload,
// processor count) point of the comparison matrix, keyed by a stable
// content hash (core.CellKey) — and guarantees that each unique cell is
// simulated exactly once per Engine, however many experiments ask for it.
//
// Three mechanisms combine to make `o2kbench -exp all` cost O(unique cells)
// instead of O(experiments × cells):
//
//   - memoization: a completed cell's core.Metrics (or plan set) is cached
//     under its content hash and served to later requesters;
//   - single-flight: a cell requested while already in flight blocks its
//     requester on the one running simulation instead of starting another;
//   - a bounded worker pool: unique cells execute under a semaphore sized
//     from GOMAXPROCS (or the -jobs flag), so an entire experiment suite
//     saturates the host without oversubscribing it.
//
// Because the virtual-time simulator is fully deterministic (DESIGN.md §4),
// a cache hit is provably indistinguishable from a re-run, and table output
// is byte-identical at any worker count. The Engine also records per-cell
// wall time and hit/miss/dedup statistics; Report exposes them as the
// observability hook behind `o2kbench -runreport`.
//
// Cells carry errors, not just values (DESIGN.md §5.3): a compute that
// panics, times out, or fails is published as the cell's error and served to
// every requester, so one wedged cell degrades one table entry instead of
// deadlocking the run. The engine is cancellable as a whole (NewWithPolicy's
// context), bounds each attempt with a per-cell timeout, and retries
// failures marked Transient with exponential backoff.
package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"o2k/internal/runner/diskcache"
	"o2k/internal/runner/lease"
)

// ErrCellAborted is the cancellation cause a cell's compute context carries
// when every requester waiting on the cell has gone away before it completed
// (per-request cancellation, DESIGN.md §5.11). It wraps context.Canceled, so
// an aborted outcome is never persisted to the disk cache; the engine also
// retires the cell from the memo map and the report order, so the next
// request of the same key recomputes from scratch as if the cell had never
// been asked for.
var ErrCellAborted = fmt.Errorf("every requester left: %w", context.Canceled)

// Policy is the engine's fault-tolerance configuration. The zero value means
// no per-cell timeout and no retries — every failure is final on the first
// attempt.
type Policy struct {
	// CellTimeout bounds each compute attempt; 0 means no bound. On expiry
	// the attempt's requesters get context.DeadlineExceeded while the
	// compute goroutine keeps its worker slot until it actually returns
	// (the sim stall watchdog guarantees it eventually does), so the pool
	// is never oversubscribed.
	CellTimeout time.Duration
	// Retries is the number of extra attempts granted to a compute whose
	// error is marked Transient. Deterministic failures are never retried.
	Retries int
	// Backoff is the sleep before the first retry, doubling per attempt.
	// 0 selects 10ms when Retries > 0. Each sleep is jittered over
	// [b/2, b]: pure doubling synchronizes retry storms the moment N
	// processes share one cache directory and hit the same flaky resource
	// together, while equal jitter keeps the mean and the cap.
	Backoff time.Duration
	// Seed seeds the jitter stream. 0 derives a per-process seed (the
	// desynchronization is the point); tests that need reproducible sleeps
	// set it explicitly.
	Seed int64
}

// backoff returns the un-jittered sleep cap before retry attempt i
// (0-based); the engine jitters it at sleep time.
func (p Policy) backoff(i int) time.Duration {
	b := p.Backoff
	if b <= 0 {
		b = 10 * time.Millisecond
	}
	return b << i
}

// Engine memoizes simulation cells and bounds their concurrent execution.
// The zero value is not usable; use New or NewWithPolicy. An Engine is safe
// for concurrent use and is meant to be shared by every experiment of one
// invocation — sharing is where the cross-experiment cache hits come from.
type Engine struct {
	jobs   int
	sem    chan struct{}
	pol    Policy
	ctx    context.Context
	cancel context.CancelCauseFunc

	cache  *diskcache.Cache // persistent cell cache, nil when memory-only
	leases *lease.Manager   // cross-process single-flight, nil when solo
	hook   Hook             // cell lifecycle observer, nil when silent

	rngMu sync.Mutex
	rng   *rand.Rand // retry-backoff jitter stream

	mu    sync.Mutex
	cells map[string]*cell
	order []*cell // insertion order, for stable reports
}

// cell is one memoized computation: the single-flight slot, its result or
// error, and its statistics. val, err, wall, attempts, and retired are
// written only by the owner goroutine before done is closed; readers must
// observe done first (close(done) is the publication barrier). waiters and
// completed are guarded by the engine mutex: they implement per-request
// cancellation — every live requester (the owner included) holds one
// reference, and the last reference leaving an incomplete cell cancels cctx
// with ErrCellAborted.
type cell struct {
	key      string
	label    string
	kind     string        // codec classification ("metrics", "plan"), "" if memory-only
	done     chan struct{} // closed once val/err are set
	val      any
	err      error
	wall     time.Duration // summed compute time of the attempts, slot wait excluded
	attempts int           // times compute actually ran
	fromDisk bool          // outcome restored from the persistent cache
	retired  bool          // aborted outcome withdrawn from the memo map
	hits     atomic.Int64  // requests served after completion
	dedup    atomic.Int64  // requests that waited on the in-flight run

	cctx      context.Context         // compute context: engine ctx + abort
	abort     context.CancelCauseFunc // fired when the last requester leaves
	waiters   int                     // live requesters (engine mutex)
	completed bool                    // outcome published (engine mutex)
}

// New returns an Engine whose worker pool admits jobs concurrent cell
// executions; jobs <= 0 selects GOMAXPROCS. The engine has a zero Policy
// and a background context — use NewWithPolicy for timeouts, retries, or
// engine-wide cancellation.
func New(jobs int) *Engine {
	return NewWithPolicy(context.Background(), jobs, Policy{})
}

// NewWithPolicy is New with fault-tolerance configuration: cancelling ctx
// (or calling Cancel) aborts every pending and future cell request, and pol
// sets the per-cell timeout and retry budget.
func NewWithPolicy(ctx context.Context, jobs int, pol Policy) *Engine {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ectx, cancel := context.WithCancelCause(ctx)
	seed := pol.Seed
	if seed == 0 {
		seed = time.Now().UnixNano() ^ int64(os.Getpid())<<32
	}
	return &Engine{
		jobs:   jobs,
		sem:    make(chan struct{}, jobs),
		pol:    pol,
		ctx:    ectx,
		cancel: cancel,
		rng:    rand.New(rand.NewSource(seed)),
		cells:  make(map[string]*cell),
	}
}

// jitterBackoff maps the policy's doubling cap for retry attempt i to an
// equal-jitter sleep: uniform over [cap/2, cap].
func (e *Engine) jitterBackoff(i int) time.Duration {
	b := e.pol.backoff(i)
	e.rngMu.Lock()
	d := b/2 + time.Duration(e.rng.Int63n(int64(b/2)+1))
	e.rngMu.Unlock()
	return d
}

// Jobs returns the worker-pool size.
func (e *Engine) Jobs() int { return e.jobs }

// Cancel aborts the engine: every blocked requester unblocks with cause
// (context.Canceled if nil) and future requests fail fast. In-flight compute
// goroutines run to completion but publish the cancellation error.
func (e *Engine) Cancel(cause error) { e.cancel(cause) }

// Do returns the memoized result of compute under key, running it at most
// once per Engine. The first requester becomes the owner: it acquires a
// worker slot, computes (with the Policy's timeout and retry budget), and
// publishes; concurrent requesters of the same key block on that one
// execution (single-flight), and later requesters get the cached outcome
// immediately. Failures are outcomes too: a panic, timeout, or returned
// error is published as the cell's error to every requester — waiters
// always unblock, and a subsequent request of the same key returns the
// cached error without recomputing.
//
// A non-nil codec also persists the cell across processes: when the engine
// has a cache (SetCache), the owner consults the disk before computing and
// writes the outcome back after. Disk is strictly a third tier behind the
// in-memory map and the single-flight slot — a warm entry costs one read,
// and every disk failure (absent, unreadable, corrupt, stale) silently falls
// through to compute, so cached and uncached runs are byte-identical by
// construction. A nil codec keeps the cell memory-only.
//
// ctx scopes the request, not the cell:
//
//   - every live requester of an in-flight cell — the owner included —
//     holds one reference on it; cancelling ctx drops this request out of
//     its wait immediately with ctx's cause, without disturbing the engine
//     or other requesters of the same cell;
//   - when the *last* reference leaves a cell that has not completed, the
//     cell's compute context is cancelled with ErrCellAborted: a client
//     disconnect aborts only cells no other request still wants;
//   - an aborted outcome is retired — withdrawn from the memo map and the
//     report — and never persisted, so the next request of the same key
//     recomputes as if the cell had never existed. A requester that raced
//     its registration against the abort observes the retirement and
//     retries its lookup.
//
// If ctx carries a request hook (WithRequestHook), every event this request
// produces is also delivered to it.
//
// compute receives a context cancelled at the per-cell deadline, on engine
// cancellation, or on abort; long-running computes may observe it, but the
// simulation runtime's stall watchdog is the backstop for those that don't.
//
// compute must not call Do (directly or through a typed cell helper) —
// nested acquisition could deadlock the bounded pool. Resolve dependency
// cells *before* calling Do and capture their results in the closure, as
// the typed helpers in cells.go do with their plan cells.
func (e *Engine) Do(ctx context.Context, key, label string, codec *Codec, compute func(ctx context.Context) (any, error)) (any, error) {
	rh := requestHook(ctx)
	for {
		v, err, retry := e.do(ctx, rh, key, label, codec, compute)
		if !retry {
			return v, err
		}
	}
}

// unregister drops one requester reference from c. The last live requester
// leaving an incomplete cell aborts its compute.
func (e *Engine) unregister(c *cell) {
	e.mu.Lock()
	c.waiters--
	if c.waiters == 0 && !c.completed {
		c.abort(ErrCellAborted)
	}
	e.mu.Unlock()
}

// do is one pass of Do: serve, wait, or own. retry is true when the observed
// outcome was a retired (aborted) cell while this request is still live —
// the caller loops and looks the key up again.
func (e *Engine) do(ctx context.Context, rh Hook, key, label string, codec *Codec, compute func(ctx context.Context) (any, error)) (val any, err error, retry bool) {
	e.mu.Lock()
	if c, ok := e.cells[key]; ok {
		e.mu.Unlock()
		select {
		case <-c.done:
			if c.retired && ctx.Err() == nil && e.ctx.Err() == nil {
				// The lookup raced the owner's retirement: the cell was
				// still in the map when we read it but its outcome was
				// aborted and withdrawn. Look again.
				return nil, nil, true
			}
			c.hits.Add(1)
			if e.hooked(rh) {
				e.fire(rh, Event{Kind: EventMemoHit, Key: key, Label: label, Start: time.Now(), Err: errMsg(c.err)})
			}
			return c.val, c.err, false
		default:
		}
		// In flight: register as a waiter. The AfterFunc carries the
		// reference drop for a cancelled request; a request that completes
		// its wait normally stops it and drops the reference itself.
		e.mu.Lock()
		if c.completed || c.retired {
			// Completed (or retired) between the lookup and here; done is
			// closed or about to close — fall through to the wait without
			// registering, the owner no longer observes waiters.
			e.mu.Unlock()
			<-c.done
			if c.retired && ctx.Err() == nil && e.ctx.Err() == nil {
				return nil, nil, true
			}
			c.hits.Add(1)
			if e.hooked(rh) {
				e.fire(rh, Event{Kind: EventMemoHit, Key: key, Label: label, Start: time.Now(), Err: errMsg(c.err)})
			}
			return c.val, c.err, false
		}
		c.waiters++
		e.mu.Unlock()
		stop := context.AfterFunc(ctx, func() { e.unregister(c) })
		c.dedup.Add(1)
		var t0 time.Time
		if e.hooked(rh) {
			t0 = time.Now()
		}
		select {
		case <-c.done:
			if stop() {
				e.unregister(c)
			}
			if c.retired && ctx.Err() == nil && e.ctx.Err() == nil {
				// The owner aborted after every registered requester left;
				// ours raced the abort. Still live, so look the key up
				// again — the retired cell is gone from the map.
				return nil, nil, true
			}
			if e.hooked(rh) {
				e.fire(rh, Event{Kind: EventDedup, Key: key, Label: label, Start: t0, Dur: time.Since(t0), Err: errMsg(c.err)})
			}
			return c.val, c.err, false
		case <-ctx.Done():
			// The AfterFunc drops our reference (and possibly aborts).
			return nil, fmt.Errorf("cell %s: %w", label, context.Cause(ctx)), false
		case <-e.ctx.Done():
			if stop() {
				e.unregister(c)
			}
			return nil, fmt.Errorf("cell %s: %w", label, context.Cause(e.ctx)), false
		}
	}
	c := &cell{key: key, label: label, done: make(chan struct{}), waiters: 1}
	if codec != nil {
		c.kind = codec.Kind
	}
	c.cctx, c.abort = context.WithCancelCause(e.ctx)
	e.cells[key] = c
	e.order = append(e.order, c)
	e.mu.Unlock()

	// Creator path: spawn the detached publisher that computes and publishes
	// the outcome, then wait exactly like any other requester — so a creator
	// whose request context is cancelled unblocks immediately while the
	// compute keeps running for (or is aborted on behalf of) the remaining
	// references. The publisher holds no reference of its own; the creator's
	// registration is what keeps a fresh cell's compute alive.
	go e.publish(c, rh, codec, compute)
	stop := context.AfterFunc(ctx, func() { e.unregister(c) })
	select {
	case <-c.done:
		if stop() {
			e.unregister(c)
		}
		if c.retired && ctx.Err() == nil && e.ctx.Err() == nil {
			// Our own compute was aborted by a racing departure (a co-waiter
			// left last while our registration raced it); still live, so ask
			// again.
			return nil, nil, true
		}
		return c.val, c.err, false
	case <-ctx.Done():
		// The AfterFunc drops the reference (and possibly aborts the cell).
		return nil, fmt.Errorf("cell %s: %w", label, context.Cause(ctx)), false
	case <-e.ctx.Done():
		if stop() {
			e.unregister(c)
		}
		return nil, fmt.Errorf("cell %s: %w", label, context.Cause(e.ctx)), false
	}
}

// publish is the detached owner of one fresh cell: it resolves the outcome
// (disk, lease-coordinated compute, or plain compute), publishes it, and
// closes done. Whatever happens inside — success, error, panic, timeout,
// abort — done is closed, so no requester can block forever on this key.
func (e *Engine) publish(c *cell, rh Hook, codec *Codec, compute func(ctx context.Context) (any, error)) {
	start := time.Now()
	if v, cerr, ok := e.diskLoad(c.key, codec); ok {
		c.val, c.err, c.fromDisk = v, cerr, true
	} else if e.leases != nil && e.cache != nil && codec != nil {
		e.computeShared(c, rh, codec, compute)
	} else {
		e.run(c, rh, compute)
		e.diskStore(c.key, codec, c.val, c.err)
	}
	if c.fromDisk && e.hooked(rh) {
		e.fire(rh, Event{Kind: EventDiskHit, Key: c.key, Label: c.label, Start: start, Dur: time.Since(start), Err: errMsg(c.err)})
	}

	// Publish — or retire an aborted outcome so the key can be recomputed.
	// Engine-wide cancellation is not an abort: those outcomes stay, and
	// every requester sees the engine's cause as before.
	e.mu.Lock()
	if errors.Is(c.err, ErrCellAborted) && e.ctx.Err() == nil {
		c.retired = true
		delete(e.cells, c.key)
		for i, oc := range e.order {
			if oc == c {
				e.order = append(e.order[:i], e.order[i+1:]...)
				break
			}
		}
	}
	c.completed = true
	e.mu.Unlock()
	close(c.done)
	c.abort(nil) // release the cctx timer/child bookkeeping
}

// run executes compute under the engine's retry policy in the cell's
// compute context (the engine context plus the cell's abort), and records
// on c the final outcome, the attempts actually made, and their summed
// compute time.
func (e *Engine) run(c *cell, rh Hook, compute func(ctx context.Context) (any, error)) {
	ctx := c.cctx
	for {
		val, err, t0 := e.attempt(ctx, c.label, compute)
		d := time.Since(t0)
		c.val, c.err = val, err
		c.attempts++
		c.wall += d
		if e.hooked(rh) {
			e.fire(rh, Event{Kind: EventCompute, Key: c.key, Label: c.label, Start: t0, Dur: d, Attempt: c.attempts, Err: errMsg(c.err)})
		}
		if c.err == nil || !IsTransient(c.err) || c.attempts > e.pol.Retries {
			return
		}
		if e.hooked(rh) {
			e.fire(rh, Event{Kind: EventRetry, Key: c.key, Label: c.label, Start: time.Now(), Attempt: c.attempts, Err: errMsg(c.err)})
		}
		select {
		case <-time.After(e.jitterBackoff(c.attempts - 1)):
		case <-ctx.Done():
			c.val, c.err = nil, fmt.Errorf("cell %s: %w", c.label, context.Cause(ctx))
			return
		}
	}
}

// attempt runs compute once: acquire a worker slot (or fail on engine
// cancellation or cell abort), execute on a child goroutine with panic
// recovery, and wait for the result or the per-cell deadline. The child
// releases the slot when compute actually returns — a timed-out compute
// keeps its slot until then, so the pool never runs more than jobs
// simulations at once. start is when the slot was acquired (or when the
// wait for one failed), so the time from start to return is the attempt's
// compute time without its queue wait.
func (e *Engine) attempt(ctx context.Context, label string, compute func(ctx context.Context) (any, error)) (val any, err error, start time.Time) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("cell %s: %w", label, context.Cause(ctx)), time.Now()
	}
	start = time.Now()

	cancel := context.CancelFunc(func() {})
	if e.pol.CellTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, e.pol.CellTimeout)
	}
	defer cancel()

	type outcome struct {
		val any
		err error
	}
	ch := make(chan outcome, 1) // buffered: the child never blocks if we left
	go func() {
		defer func() { <-e.sem }()
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: &PanicError{Cell: label, Reason: r, Stack: debug.Stack()}}
			}
		}()
		// The cell label rides along as a profiler label, so a CPU profile
		// splits by cell with `go tool pprof -tagfocus cell=<label>`.
		pprof.Do(ctx, pprof.Labels("cell", label), func(ctx context.Context) {
			v, err := compute(ctx)
			ch <- outcome{val: v, err: err}
		})
	}()

	select {
	case out := <-ch:
		return out.val, out.err, start
	case <-ctx.Done():
		return nil, fmt.Errorf("cell %s: %w", label, context.Cause(ctx)), start
	}
}

// Warm evaluates fns concurrently and waits for all of them. It is the
// prefetch idiom for experiment builders: fire every cell the table needs,
// let the worker pool execute the unique ones in parallel, then assemble
// the table serially from what are now guaranteed cache hits — the
// assembly order, and hence the output bytes, never depend on the pool.
func (e *Engine) Warm(fns ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	wg.Wait()
}

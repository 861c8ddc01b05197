package runner

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/core"
	"o2k/internal/machine"
)

// ok is a compute adapter for cells that cannot fail.
func ok(v any) func(context.Context) (any, error) {
	return func(context.Context) (any, error) { return v, nil }
}

func TestDoMemoizes(t *testing.T) {
	e := New(2)
	var calls atomic.Int64
	for i := 0; i < 5; i++ {
		v, err := e.Do(context.Background(), "k", "k", nil, func(context.Context) (any, error) { calls.Add(1); return 42, nil })
		if err != nil || v.(int) != 42 {
			t.Fatalf("Do returned %v, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	r := e.Report()
	if r.Unique != 1 || r.Hits != 4 || r.Requests != 5 || r.Failures != 0 {
		t.Fatalf("report = %+v", r)
	}
}

func TestDoSingleFlight(t *testing.T) {
	e := New(4)
	var calls atomic.Int64
	gate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := e.Do(context.Background(), "slow", "slow", nil, func(context.Context) (any, error) {
				<-gate // hold the cell in flight until everyone has asked
				calls.Add(1)
				return "done", nil
			})
			if err != nil || v.(string) != "done" {
				t.Errorf("Do returned %v, %v", v, err)
			}
		}()
	}
	// Wait until the dedup count shows every non-owner is parked, then
	// release the one running compute.
	for e.Report().Dedups != waiters-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("in-flight cell computed %d times, want 1", calls.Load())
	}
}

func TestJobsDefaultsPositive(t *testing.T) {
	if New(0).Jobs() < 1 || New(-3).Jobs() < 1 {
		t.Fatal("New must select a positive pool size")
	}
}

// TestPanickingCellDoesNotDeadlock is the headline regression test: one
// cell's compute panics while 8 goroutines request it concurrently. Every
// requester must unblock with the panic in the cell's error (no poisoned
// done channel), the owner's worker slot must be released (a subsequent
// unrelated cell still runs), and the panic reason must appear in Report.
func TestPanickingCellDoesNotDeadlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		jobs int
	}{
		{"jobs=1", 1}, // one slot: a leaked slot would wedge the engine outright
		{"jobs=4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.jobs)
			const requesters = 8
			errs := make(chan error, requesters)
			for i := 0; i < requesters; i++ {
				go func() {
					_, err := e.Do(context.Background(), "bad", "bad cell", nil, func(context.Context) (any, error) {
						panic("boom: simulated cell bug")
					})
					errs <- err
				}()
			}
			for i := 0; i < requesters; i++ {
				select {
				case err := <-errs:
					var pe *PanicError
					if !errors.As(err, &pe) {
						t.Fatalf("requester %d: err = %v, want *PanicError", i, err)
					}
					if !strings.Contains(err.Error(), "boom: simulated cell bug") {
						t.Fatalf("panic reason lost: %v", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("requester %d still blocked: poisoned-cell deadlock", i)
				}
			}
			// Slot recovery: an unrelated cell must still run.
			done := make(chan struct{})
			go func() {
				if v, err := e.Do(context.Background(), "good", "good", nil, ok(7)); err != nil || v.(int) != 7 {
					t.Errorf("follow-up cell: %v, %v", v, err)
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("follow-up cell blocked: worker slot leaked by the panicking owner")
			}
			// The failure is memoized and visible in the report.
			if _, err := e.Do(context.Background(), "bad", "bad cell", nil, ok(nil)); err == nil {
				t.Fatal("re-request of the failed cell lost its error")
			}
			r := e.Report()
			if r.Failures != 1 {
				t.Fatalf("Failures = %d, want 1", r.Failures)
			}
			found := false
			for _, c := range r.Cells {
				if c.Label == "bad cell" && strings.Contains(c.Err, "boom: simulated cell bug") {
					found = true
				}
			}
			if !found {
				t.Fatalf("panic reason missing from report: %+v", r.Cells)
			}
		})
	}
}

func TestCellError(t *testing.T) {
	e := New(1)
	sentinel := errors.New("compute says no")
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		_, err := e.Do(context.Background(), "err", "err", nil, func(context.Context) (any, error) {
			calls.Add(1)
			return nil, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want sentinel", err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("failed cell recomputed %d times; errors must be memoized", calls.Load())
	}
}

func TestCellTimeout(t *testing.T) {
	e := NewWithPolicy(context.Background(), 2, Policy{CellTimeout: 20 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	_, err := e.Do(context.Background(), "hang", "hang", nil, func(context.Context) (any, error) {
		<-release // a compute that never finishes on its own
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not bound the wait")
	}
	if got := FailLabel(err); got != "FAILED(timeout)" {
		t.Fatalf("FailLabel = %q", got)
	}
}

func TestEngineCancelUnblocksWaiters(t *testing.T) {
	e := NewWithPolicy(context.Background(), 1, Policy{})
	gate := make(chan struct{})
	defer close(gate)
	go e.Do(context.Background(), "held", "held", nil, func(context.Context) (any, error) { <-gate; return 1, nil })
	for e.Report().Unique != 1 {
		runtime.Gosched()
	}
	// A waiter on the in-flight cell and a requester needing the (occupied)
	// worker slot must both unblock on engine cancellation.
	errs := make(chan error, 2)
	go func() { _, err := e.Do(context.Background(), "held", "held", nil, ok(nil)); errs <- err }()
	go func() { _, err := e.Do(context.Background(), "other", "other", nil, ok(nil)); errs <- err }()
	cause := errors.New("operator abort")
	time.AfterFunc(10*time.Millisecond, func() { e.Cancel(cause) })
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, cause) {
				t.Fatalf("err = %v, want cancellation cause", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancellation did not unblock a requester")
		}
	}
}

func TestTransientRetry(t *testing.T) {
	e := NewWithPolicy(context.Background(), 1, Policy{Retries: 3, Backoff: time.Millisecond})
	var calls atomic.Int64
	v, err := e.Do(context.Background(), "flaky", "flaky", nil, func(context.Context) (any, error) {
		if calls.Add(1) < 3 {
			return nil, Transient(errors.New("try again"))
		}
		return "finally", nil
	})
	if err != nil || v.(string) != "finally" {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("compute ran %d times, want 3", calls.Load())
	}
	r := e.Report()
	if r.Cells[0].Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", r.Cells[0].Attempts)
	}

	// A persistent transient error exhausts the budget and caches the error.
	var persist atomic.Int64
	_, err = e.Do(context.Background(), "stillflaky", "stillflaky", nil, func(context.Context) (any, error) {
		persist.Add(1)
		return nil, Transient(errors.New("never better"))
	})
	if err == nil || persist.Load() != 4 { // 1 attempt + 3 retries
		t.Fatalf("persistent transient: err=%v attempts=%d, want error after 4 attempts", err, persist.Load())
	}

	// Non-transient errors are never retried.
	var hard atomic.Int64
	e.Do(context.Background(), "hard", "hard", nil, func(context.Context) (any, error) {
		hard.Add(1)
		return nil, errors.New("deterministic failure")
	})
	if hard.Load() != 1 {
		t.Fatalf("deterministic failure retried %d times", hard.Load())
	}
}

// TestReportConcurrentWithWarm is the -race regression test for the Report
// snapshot: reading per-cell fields of in-flight cells while their owners
// write them must be race-free (publication via the done channel).
func TestReportConcurrentWithWarm(t *testing.T) {
	e := New(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Report()
			}
		}
	}()
	var fns []func()
	for i := 0; i < 64; i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i/26))
		fns = append(fns, func() {
			e.Do(context.Background(), key, key, nil, func(context.Context) (any, error) {
				time.Sleep(time.Millisecond)
				return key, nil
			})
		})
	}
	e.Warm(fns...)
	close(stop)
	wg.Wait()
	r := e.Report()
	if r.Unique == 0 || r.Failures != 0 {
		t.Fatalf("report after warm = %+v", r)
	}
}

// TestMeshCellMatchesDirect pins the cell path to the direct RunWithPlans
// path: memoization must be semantically invisible.
func TestMeshCellMatchesDirect(t *testing.T) {
	w := adaptmesh.Small()
	cfg := machine.Default(4)
	direct := adaptmesh.RunWithPlans(core.SAS, machine.MustNew(cfg), w, adaptmesh.BuildPlans(w, 4))
	cell := New(2).Mesh(context.Background(), core.SAS, cfg, w)
	if cell.Failed() {
		t.Fatalf("cell failed: %v", cell.Err)
	}
	if direct.Fingerprint() != cell.M.Fingerprint() {
		t.Fatalf("cell metrics diverge from direct run:\n cell   %v\n direct %v", cell.M, direct)
	}
}

// TestCacheCorrectness re-requests the same cells and demands 100% cache
// hits with identical metrics.
func TestCacheCorrectness(t *testing.T) {
	e := New(2)
	w := barnes.Small()
	cfg := machine.Default(2)
	first := e.NBodyModels(context.Background(), cfg, w)
	misses := e.Report().Unique
	second := e.NBodyModels(context.Background(), cfg, w)
	r := e.Report()
	if r.Unique != misses {
		t.Fatalf("second request simulated %d new cells, want 0", r.Unique-misses)
	}
	for i := range first {
		if first[i].Failed() || second[i].Failed() {
			t.Fatalf("cell failed: %v / %v", first[i].Err, second[i].Err)
		}
		if first[i].M.Fingerprint() != second[i].M.Fingerprint() {
			t.Fatalf("model %d: cached metrics differ from first run", i)
		}
	}
}

// TestMeshPlanKeyNormalization checks that ablation knobs the plan builder
// ignores do not split the plan cell.
func TestMeshPlanKeyNormalization(t *testing.T) {
	e := New(2)
	w := adaptmesh.Small()
	if _, err := e.MeshPlans(context.Background(), w, 2); err != nil {
		t.Fatal(err)
	}
	base := e.Report().Unique

	wMig := w
	wMig.SasPageMigrate = true
	e.MeshPlans(context.Background(), wMig, 2)
	if got := e.Report().Unique; got != base {
		t.Fatalf("SasPageMigrate split the plan cell (%d -> %d unique)", base, got)
	}

	// NoRemap changes the plans and must get its own cell.
	wOff := w
	wOff.NoRemap = true
	e.MeshPlans(context.Background(), wOff, 2)
	if got := e.Report().Unique; got != base+1 {
		t.Fatalf("NoRemap plan cell not separate (%d -> %d unique)", base, got)
	}
}

func TestReportHitRate(t *testing.T) {
	e := New(1)
	e.Do(context.Background(), "a", "a", nil, ok(1))
	e.Do(context.Background(), "a", "a", nil, ok(1))
	e.Do(context.Background(), "b", "b", nil, ok(2))
	r := e.Report()
	if got, want := r.HitRate(), 1.0/3.0; got != want {
		t.Fatalf("HitRate = %v, want %v", got, want)
	}
	if tb := r.Table(); len(tb.Rows) != 4+r.Unique {
		t.Fatalf("report table has %d rows, want %d", len(tb.Rows), 4+r.Unique)
	}
}

// TestReportWallExcludesQueueWait pins CellStat.Wall and the compute event's
// span to compute time: on a one-slot engine, the second of two concurrent
// cells waits ~50ms for the slot, and that wait must not count as compute.
func TestReportWallExcludesQueueWait(t *testing.T) {
	e := New(1)
	var (
		mu    sync.Mutex
		spans []time.Duration
	)
	e.SetHook(func(ev Event) {
		if ev.Kind == EventCompute {
			mu.Lock()
			spans = append(spans, ev.Dur)
			mu.Unlock()
		}
	})
	sleep := func(context.Context) (any, error) { time.Sleep(50 * time.Millisecond); return 1, nil }
	var wg sync.WaitGroup
	for _, k := range []string{"a", "b"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			e.Do(context.Background(), k, k, nil, sleep)
		}(k)
	}
	wg.Wait()
	r := e.Report()
	if len(r.Cells) != 2 {
		t.Fatalf("report has %d cells, want 2", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.Wall < 50*time.Millisecond || c.Wall >= 90*time.Millisecond {
			t.Errorf("cell %s: Wall = %v, want [50ms, 90ms): the compute without its slot wait", c.Label, c.Wall)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("%d compute events, want 2", len(spans))
	}
	for _, d := range spans {
		if d >= 90*time.Millisecond {
			t.Errorf("compute span = %v, want < 90ms: the span must start at slot acquisition", d)
		}
	}
}

func TestFailLabel(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{context.DeadlineExceeded, "FAILED(timeout)"},
		{context.Canceled, "FAILED(cancelled)"},
		{&PanicError{Cell: "c", Reason: "boom"}, "FAILED(panic: boom)"},
		{errors.New("plain"), "FAILED(plain)"},
	} {
		if got := FailLabel(tc.err); got != tc.want {
			t.Errorf("FailLabel(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
	if !IsTransient(Transient(errors.New("x"))) || IsTransient(errors.New("x")) || Transient(nil) != nil {
		t.Fatal("Transient/IsTransient misbehave")
	}
}

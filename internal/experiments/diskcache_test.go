package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
)

// The suite-level guarantees of the persistent cell cache (DESIGN.md §5.5):
// a warm cache makes `-exp all` serve its metrics cells from disk with
// byte-identical output at any -jobs value, and every injected fault —
// unreadable entries, bit rot, version skew, a SIGKILL mid-sweep — degrades
// to recomputation without changing a single output byte.

// runAllCached renders the full quick suite on a fresh engine over the
// given cache, returning the bytes and the engine's report.
func runAllCached(t *testing.T, jobs int, dc *diskcache.Cache) (string, *runner.Report) {
	t.Helper()
	o := QuickOpts()
	e := runner.New(jobs)
	if dc != nil {
		e.SetCache(dc)
	}
	out := renderAll(RunAllCtx(context.Background(), e, o))
	return out, e.Report()
}

func openCache(t *testing.T, dir string, opts ...diskcache.Option) *diskcache.Cache {
	t.Helper()
	dc, err := diskcache.Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

func TestWarmCacheByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite; skipped with -short")
	}
	ref, _ := runAllCached(t, 1, nil) // uncached reference bytes

	dir := t.TempDir()
	cold, coldRep := runAllCached(t, 1, openCache(t, dir))
	if cold != ref {
		t.Fatal("cold cached run differs from uncached run")
	}
	if coldRep.DiskHits != 0 || coldRep.Disk == nil || coldRep.Disk.Misses == 0 {
		t.Fatalf("cold report = DiskHits=%d Disk=%+v", coldRep.DiskHits, coldRep.Disk)
	}

	for _, jobs := range []int{1, 4} {
		warm, warmRep := runAllCached(t, jobs, openCache(t, dir))
		if warm != ref {
			t.Fatalf("warm run at -jobs %d differs from cold run", jobs)
		}
		if warmRep.Disk == nil || warmRep.Disk.Corrupt != 0 || warmRep.Disk.Stale != 0 {
			t.Fatalf("warm run at -jobs %d reported damage: %+v", jobs, warmRep.Disk)
		}
		// Every persisted cell — metrics and plan tier alike — must come
		// from disk; the only cells computed on a warm run are the
		// memory-only n-body per-P plan derivations (no codec, Kind "").
		if warmRep.DiskHits == 0 {
			t.Fatalf("warm run at -jobs %d served nothing from disk", jobs)
		}
		if warmRep.PlanDiskHits == 0 {
			t.Fatalf("warm run at -jobs %d served no plan cells from disk", jobs)
		}
		for _, c := range warmRep.Cells {
			if !c.FromDisk && c.Kind != "" {
				t.Fatalf("warm run at -jobs %d recomputed persisted cell %q", jobs, c.Label)
			}
		}
	}
}

// Every injected fault class must leave the output bytes untouched.
func TestCacheFaultsPreserveBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite; skipped with -short")
	}
	ref, _ := runAllCached(t, 1, nil)

	t.Run("bit-rot on every read", func(t *testing.T) {
		dir := t.TempDir()
		if out, _ := runAllCached(t, 2, openCache(t, dir)); out != ref {
			t.Fatal("cold run differs")
		}
		ffs := diskcache.NewFaultFS(nil)
		ffs.FlipBitOnRead(1 << 20)
		out, rep := runAllCached(t, 2, openCache(t, dir, diskcache.WithFS(ffs)))
		if out != ref {
			t.Fatal("bit-rotted cache changed output bytes")
		}
		if rep.DiskHits != 0 || rep.Disk.Corrupt == 0 {
			t.Fatalf("report = DiskHits=%d Disk=%+v, want all-corrupt, none served", rep.DiskHits, rep.Disk)
		}
	})

	t.Run("read errors on every probe", func(t *testing.T) {
		dir := t.TempDir()
		if out, _ := runAllCached(t, 2, openCache(t, dir)); out != ref {
			t.Fatal("cold run differs")
		}
		ffs := diskcache.NewFaultFS(nil)
		ffs.FailReads(errors.New("injected EIO"))
		out, rep := runAllCached(t, 2, openCache(t, dir, diskcache.WithFS(ffs)))
		if out != ref {
			t.Fatal("unreadable cache changed output bytes")
		}
		if rep.DiskHits != 0 || rep.Disk.ReadErrs == 0 {
			t.Fatalf("report = DiskHits=%d Disk=%+v", rep.DiskHits, rep.Disk)
		}
	})

	t.Run("version skew", func(t *testing.T) {
		dir := t.TempDir()
		if out, _ := runAllCached(t, 2, openCache(t, dir, diskcache.WithFingerprint("old-build"))); out != ref {
			t.Fatal("cold run differs")
		}
		out, rep := runAllCached(t, 2, openCache(t, dir, diskcache.WithFingerprint("new-build")))
		if out != ref {
			t.Fatal("version-skewed cache changed output bytes")
		}
		if rep.DiskHits != 0 || rep.Disk.Stale == 0 {
			t.Fatalf("report = DiskHits=%d Disk=%+v, want all entries stale", rep.DiskHits, rep.Disk)
		}
	})

	t.Run("write errors while populating", func(t *testing.T) {
		ffs := diskcache.NewFaultFS(nil)
		ffs.FailWrites(errors.New("injected ENOSPC"))
		out, rep := runAllCached(t, 2, openCache(t, t.TempDir(), diskcache.WithFS(ffs)))
		if out != ref {
			t.Fatal("unwritable cache changed output bytes")
		}
		if rep.Disk.PutErrs == 0 {
			t.Fatalf("report = %+v, want put errors counted", rep.Disk)
		}
	})

	t.Run("truncated torn writes", func(t *testing.T) {
		dir := t.TempDir()
		ffs := diskcache.NewFaultFS(nil)
		ffs.TruncateWritesAt(25)
		if out, _ := runAllCached(t, 2, openCache(t, dir, diskcache.WithFS(ffs))); out != ref {
			t.Fatal("torn-write run changed output bytes")
		}
		// Every committed entry is torn; the rerun must reject them all.
		out, rep := runAllCached(t, 2, openCache(t, dir))
		if out != ref {
			t.Fatal("torn cache changed output bytes")
		}
		if rep.DiskHits != 0 || rep.Disk.Corrupt == 0 {
			t.Fatalf("report = DiskHits=%d Disk=%+v, want all-corrupt", rep.DiskHits, rep.Disk)
		}
	})
}

// The point of keying plan cells on (workload, P) and never on machine
// timing constants: fig12's four machine classes differ only in latency and
// bandwidth numbers, so all four share ONE structure cell and ONE plan cell.
func TestFig12MachinePresetsShareOnePlanCell(t *testing.T) {
	o := QuickOpts()
	dir := t.TempDir()

	e := runner.New(2)
	e.SetCache(openCache(t, dir))
	if _, err := RunOnCtx(context.Background(), e, "machine-sweep", o); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	plan, persisted := 0, 0
	for _, c := range rep.Cells {
		if c.Kind != "" {
			persisted++
		}
		if c.Kind == "plan" {
			plan++
		}
	}
	// Four presets × three models ran, but the mesh workload needs exactly
	// two plan-tier cells: the adaptation structure and the P-specific
	// partitioning decisions.
	if plan != 2 {
		t.Fatalf("machine sweep created %d plan cells, want 2 (structure + plans)", plan)
	}
	if rep.PlanCells != plan {
		t.Fatalf("report counts %d plan cells, cells list has %d", rep.PlanCells, plan)
	}
	// Disk holds one entry per persisted cell — nothing was stored twice
	// under different machine constants.
	if got := countEntries(t, dir); got != persisted {
		t.Fatalf("disk has %d entries, report persisted %d cells", got, persisted)
	}

	// A second sweep over the same presets serves both plan cells from disk.
	e2 := runner.New(2)
	e2.SetCache(openCache(t, dir))
	if _, err := RunOnCtx(context.Background(), e2, "machine-sweep", o); err != nil {
		t.Fatal(err)
	}
	if rep2 := e2.Report(); rep2.PlanDiskHits != 2 {
		t.Fatalf("warm sweep served %d plan cells from disk, want 2", rep2.PlanDiskHits)
	}
	if got := countEntries(t, dir); got != persisted {
		t.Fatalf("warm sweep changed the entry count: %d != %d", countEntries(t, dir), got)
	}
}

// childEnvDir is the env hook TestMain uses to run the sweep-child mode:
// the test binary re-executed as a separate process that fills the given
// cache directory until it is SIGKILLed.
const childEnvDir = "O2K_SWEEP_CHILD_CACHE"

// runSweepChild is the subprocess body for the kill-resume test: run the
// quick suite against the cache, serially so entries appear steadily.
func runSweepChild(dir string) {
	dc, err := diskcache.Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep child:", err)
		os.Exit(1)
	}
	e := runner.New(1)
	e.SetCache(dc)
	RunAllCtx(context.Background(), e, QuickOpts())
	os.Exit(0)
}

func TestMain(m *testing.M) {
	if dir := os.Getenv(childEnvDir); dir != "" {
		runSweepChild(dir)
	}
	os.Exit(m.Run())
}

// countEntries walks the cache directory for committed entry files.
func countEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".cell" {
			n++
		}
		return nil
	})
	return n
}

// TestKillResume proves the crash-safety story end to end: a sweep process
// SIGKILLed mid-run leaves a cache in which every committed entry is valid,
// and a rerun against the same directory resumes from it — serving the
// killed run's completed cells from disk — with byte-identical output.
func TestKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess + full quick suite; skipped with -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnvDir+"="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()

	// Kill the child the moment it has committed a few entries but (almost
	// certainly) not all of them. If the child is too fast and finishes,
	// the test still verifies resume — just not mid-sweep interruption.
	deadline := time.After(30 * time.Second)
poll:
	for countEntries(t, dir) < 5 {
		select {
		case <-done:
			break poll
		case <-deadline:
			break poll
		case <-time.After(2 * time.Millisecond):
		}
	}
	cmd.Process.Signal(syscall.SIGKILL)
	<-done

	committed := countEntries(t, dir)
	if committed == 0 {
		t.Fatal("child committed no entries before the kill")
	}
	t.Logf("killed child with %d entries committed", committed)

	// Every entry the kill left behind must be valid: atomic rename means
	// no torn entries, whatever instant the SIGKILL landed.
	dc := openCache(t, dir)
	st, err := dc.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if st.Bad != 0 {
		t.Fatalf("kill left %d invalid entries of %d", st.Bad, st.Checked)
	}

	// The resumed run serves the killed run's cells from disk and produces
	// the exact reference bytes.
	ref, _ := runAllCached(t, 1, nil)
	out, rep := runAllCached(t, 2, dc)
	if out != ref {
		t.Fatal("resumed run differs from reference bytes")
	}
	if rep.DiskHits == 0 {
		t.Fatal("resumed run served nothing from the killed run's cache")
	}
	if rep.Disk.Corrupt != 0 || rep.Disk.Stale != 0 {
		t.Fatalf("resumed run found damage: %+v", rep.Disk)
	}
	t.Logf("resumed run served %d cells from the killed sweep", rep.DiskHits)
}

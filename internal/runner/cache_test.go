package runner

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"o2k/internal/core"
	"o2k/internal/runner/diskcache"
)

// testCodec persists int cell values for the engine-level tests.
var testCodec = &Codec{
	Encode: func(v any) ([]byte, error) { return json.Marshal(v.(int)) },
	Decode: func(data []byte) (any, error) {
		var v int
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, err
		}
		return v, nil
	},
}

func cachedEngine(t *testing.T, dir string, opts ...diskcache.Option) *Engine {
	t.Helper()
	dc, err := diskcache.Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	e := New(2)
	e.SetCache(dc)
	return e
}

func TestDiskCachePersistsAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/persist", 1)
	computes := 0
	compute := func(context.Context) (any, error) { computes++; return 41, nil }

	e1 := cachedEngine(t, dir)
	if v, err := e1.Do(context.Background(), key, "cell", testCodec, compute); err != nil || v.(int) != 41 {
		t.Fatalf("cold run: %v, %v", v, err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}

	// A second engine over the same directory restores from disk.
	e2 := cachedEngine(t, dir)
	v, err := e2.Do(context.Background(), key, "cell", testCodec, compute)
	if err != nil || v.(int) != 41 {
		t.Fatalf("warm run: %v, %v", v, err)
	}
	if computes != 1 {
		t.Fatalf("warm run recomputed (computes = %d)", computes)
	}
	r := e2.Report()
	if r.DiskHits != 1 || r.Disk == nil || r.Disk.Hits != 1 {
		t.Fatalf("report disk stats = DiskHits=%d Disk=%+v, want one disk hit", r.DiskHits, r.Disk)
	}
	if len(r.Cells) != 1 || !r.Cells[0].FromDisk {
		t.Fatalf("cell stat not marked FromDisk: %+v", r.Cells)
	}
}

func TestDiskCacheUncodedCellsStayMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/plain", 1)
	computes := 0
	compute := func(context.Context) (any, error) { computes++; return 1, nil }

	e1 := cachedEngine(t, dir)
	e1.Do(context.Background(), key, "cell", nil, compute) // nil codec: plan-style cell
	e2 := cachedEngine(t, dir)
	e2.Do(context.Background(), key, "cell", nil, compute)
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 (nil-codec cells must not persist)", computes)
	}
	if n, _ := e2.Cache().Len(); n != 0 {
		t.Fatalf("%d entries on disk for nil-codec cells", n)
	}
}

func TestDiskCachePersistsDeterministicErrors(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/err", 1)
	computes := 0
	boom := errors.New("mesh exploded")
	compute := func(context.Context) (any, error) { computes++; return nil, boom }

	e1 := cachedEngine(t, dir)
	_, err1 := e1.Do(context.Background(), key, "cell", testCodec, compute)
	e2 := cachedEngine(t, dir)
	_, err2 := e2.Do(context.Background(), key, "cell", testCodec, compute)
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (deterministic error must persist)", computes)
	}
	var ce *CachedError
	if !errors.As(err2, &ce) {
		t.Fatalf("warm error = %T %v, want *CachedError", err2, err2)
	}
	if FailLabel(err2) != FailLabel(err1) || FailLabel(err2) != "FAILED(mesh exploded)" {
		t.Fatalf("warm FailLabel %q != cold %q", FailLabel(err2), FailLabel(err1))
	}
	if err2.Error() != boom.Error() {
		t.Fatalf("warm message %q, want %q", err2.Error(), boom.Error())
	}
}

func TestDiskCachePersistsPanics(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/panic", 1)
	computes := 0
	compute := func(context.Context) (any, error) { computes++; panic("blew a gasket") }

	e1 := cachedEngine(t, dir)
	_, err1 := e1.Do(context.Background(), key, "cell", testCodec, compute)
	e2 := cachedEngine(t, dir)
	_, err2 := e2.Do(context.Background(), key, "cell", testCodec, compute)
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	want := "FAILED(panic: blew a gasket)"
	if FailLabel(err1) != want || FailLabel(err2) != want {
		t.Fatalf("labels %q / %q, want %q", FailLabel(err1), FailLabel(err2), want)
	}
}

func TestDiskCacheSkipsEnvironmentalFailures(t *testing.T) {
	dir := t.TempDir()

	// Timeout: the outcome depends on the deadline, not the cell.
	dc, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := NewWithPolicy(context.Background(), 1, Policy{CellTimeout: 10 * time.Millisecond})
	e.SetCache(dc)
	release := make(chan struct{})
	_, terr := e.Do(context.Background(), core.CellKey("test/slow", 1), "slow", testCodec,
		func(ctx context.Context) (any, error) { <-release; return 1, nil })
	close(release)
	if !errors.Is(terr, context.DeadlineExceeded) {
		t.Fatalf("timeout err = %v", terr)
	}

	// Cancellation, including a custom cause.
	e2 := cachedEngine(t, dir)
	e2.Cancel(errors.New("operator stop"))
	e2.Do(context.Background(), core.CellKey("test/cancelled", 1), "c", testCodec,
		func(context.Context) (any, error) { return 1, nil })

	// Transient failure: retryable by definition.
	e3 := cachedEngine(t, dir)
	e3.Do(context.Background(), core.CellKey("test/transient", 1), "t", testCodec,
		func(context.Context) (any, error) { return nil, Transient(errors.New("flaky")) })

	if n, _ := e3.Cache().Len(); n != 0 {
		t.Fatalf("%d entries persisted for environmental failures, want 0", n)
	}
}

func TestDiskCacheCorruptPayloadRecomputes(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/corrupt-payload", 1)

	// Plant an entry whose envelope is valid but whose payload does not
	// decode as an outcome — damage the checksum cannot see.
	dc, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.Put(key, []byte(`{"neither":"val-nor-err"}`)); err != nil {
		t.Fatal(err)
	}

	computes := 0
	e := cachedEngine(t, dir)
	v, cerr := e.Do(context.Background(), key, "cell", testCodec,
		func(context.Context) (any, error) { computes++; return 7, nil })
	if cerr != nil || v.(int) != 7 || computes != 1 {
		t.Fatalf("corrupt payload not recomputed: v=%v err=%v computes=%d", v, cerr, computes)
	}
	cn := e.Cache().Counters()
	if cn.Corrupt != 1 {
		t.Fatalf("counters = %+v, want corrupt=1", cn)
	}
	// The recompute overwrote the bad entry; a fresh engine now hits.
	e2 := cachedEngine(t, dir)
	if v, err := e2.Do(context.Background(), key, "cell", testCodec,
		func(context.Context) (any, error) { computes++; return 7, nil }); err != nil || v.(int) != 7 || computes != 1 {
		t.Fatalf("rewritten entry not served: %v %v computes=%d", v, err, computes)
	}
}

func TestDiskCacheWriteFailuresDoNotAffectRun(t *testing.T) {
	ffs := diskcache.NewFaultFS(nil)
	ffs.FailWrites(errors.New("injected ENOSPC"))
	e := cachedEngine(t, t.TempDir(), diskcache.WithFS(ffs))

	key := core.CellKey("test/unwritable", 1)
	v, err := e.Do(context.Background(), key, "cell", testCodec, func(context.Context) (any, error) { return 9, nil })
	if err != nil || v.(int) != 9 {
		t.Fatalf("run affected by write failure: %v, %v", v, err)
	}
	if cn := e.Cache().Counters(); cn.PutErrs != 1 {
		t.Fatalf("counters = %+v, want put_errs=1", cn)
	}
	// Memoized in memory regardless.
	computes := 0
	if v, _ := e.Do(context.Background(), key, "cell", testCodec, func(context.Context) (any, error) { computes++; return 9, nil }); v.(int) != 9 || computes != 0 {
		t.Fatal("in-memory memoization broken under write failures")
	}
}

func TestDiskCacheReadFaultsDegradeToCompute(t *testing.T) {
	dir := t.TempDir()
	key := core.CellKey("test/unreadable", 1)
	e1 := cachedEngine(t, dir)
	if _, err := e1.Do(context.Background(), key, "cell", testCodec, func(context.Context) (any, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}

	ffs := diskcache.NewFaultFS(nil)
	ffs.FailReads(errors.New("injected EIO"))
	e2 := cachedEngine(t, dir, diskcache.WithFS(ffs))
	computes := 0
	v, err := e2.Do(context.Background(), key, "cell", testCodec, func(context.Context) (any, error) { computes++; return 3, nil })
	if err != nil || v.(int) != 3 || computes != 1 {
		t.Fatalf("read fault not degraded to compute: %v %v computes=%d", v, err, computes)
	}
	r := e2.Report()
	if r.Disk == nil || r.Disk.ReadErrs != 1 || r.DiskHits != 0 {
		t.Fatalf("report disk stats = %+v DiskHits=%d", r.Disk, r.DiskHits)
	}
}

package numa

import (
	"runtime"
	"testing"

	"o2k/internal/sim"
)

// TestSparseArrayFootprint: host memory follows the pages stored to, not the
// array's length. A dense backing spent 8 MiB here.
func TestSparseArrayFootprint(t *testing.T) {
	sp, _ := space(1)
	p := sim.NewGroup(1).Proc(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := NewPrivate[float64](sp, 0, 1<<20)
	a.Store(p, 1<<19, 1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("1M-element array with one store allocated %d bytes of heap, want < 64 KiB", got)
	}
	if a.Peek(1<<19) != 1 || a.Peek(1<<19+1) != 0 || a.Peek(0) != 0 {
		t.Fatal("sparse array lost its data")
	}
}

// TestReleaseRecyclesPages: a released array's pages serve the next array
// of the same element type, zeroed.
func TestReleaseRecyclesPages(t *testing.T) {
	sp, _ := space(1)
	p := sim.NewGroup(1).Proc(0)
	a := NewPrivate[float64](sp, 0, 4*pageElems)
	for i := 0; i < a.Len(); i++ {
		a.Store(p, i, float64(i+1))
	}
	Release(a)
	if got := len(poolOf[float64](sp).free); got != 4 {
		t.Fatalf("free list holds %d pages after Release, want 4", got)
	}
	b := NewPrivate[float64](sp, 0, 2*pageElems)
	b.Store(p, 0, -1)         // installs a recycled page
	b.Store(p, pageElems, -1) // and another
	for i := 0; i < b.Len(); i++ {
		if v := b.Load(p, i); v != 0 && i%pageElems != 0 {
			t.Fatalf("recycled page not zeroed: b[%d] = %v", i, v)
		}
	}
	if got := len(poolOf[float64](sp).free); got != 2 {
		t.Fatalf("free list holds %d pages after reuse, want 2", got)
	}
	if got := len(poolOf[int32](sp).free); got != 0 {
		t.Fatalf("int32 free list holds %d pages, want 0 (pages are per type)", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("access after Release did not panic")
		}
	}()
	a.Load(p, 0)
}

// TestOutOfRangePanics: the paged accessors keep the dense slice's bounds
// checks, including inside a last page the array only partly covers.
func TestOutOfRangePanics(t *testing.T) {
	sp, _ := space(1)
	p := sim.NewGroup(1).Proc(0)
	a := NewPrivate[float64](sp, 0, pageElems+5)
	a.Store(p, pageElems, 1) // installs the partial last page
	for name, f := range map[string]func(){
		"Load":       func() { a.Load(p, pageElems+5) },
		"Store":      func() { a.Store(p, pageElems+6, 1) },
		"Peek":       func() { a.Peek(-1) },
		"CursorLoad": func() { cu := a.Cursor(p); cu.Load(pageElems + 7) },
		"PokeRange":  func() { a.PokeRange(pageElems, make([]float64, 6)) },
		"TryLoad": func() {
			// The partial last page is never TryLoad's page: a hit there
			// would skip the bounds check.
			cu := a.Cursor(p)
			cu.LoadMiss(pageElems + 1)
			if _, ok := cu.TryLoad(pageElems + 6); !ok {
				cu.LoadMiss(pageElems + 6)
			}
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestZeroPageStaysZero: stores never reach the shared zero page, for small
// and for oversized element types.
func TestZeroPageStaysZero(t *testing.T) {
	type big struct{ v [20]float64 } // 160 bytes: its own zero page
	sp, _ := space(1)
	p := sim.NewGroup(1).Proc(0)
	f := NewPrivate[float64](sp, 0, 3*pageElems)
	b := NewPrivate[big](sp, 0, 3*pageElems)
	for i := 0; i < f.Len(); i += 7 {
		f.Store(p, i, 1)
		b.Store(p, i, big{v: [20]float64{1}})
	}
	if !ZeroPageClean() {
		t.Fatal("shared zero page written")
	}
	if *b.zpage != (hostPage[big]{}) {
		t.Fatal("oversized element type's zero page written")
	}
}

// TestInstallRaceLoser drives install's losing branch deterministically: when
// the slot already holds a page, install must return that page and hand its
// own back to the free list.
func TestInstallRaceLoser(t *testing.T) {
	sp, _ := space(1)
	p := sim.NewGroup(1).Proc(0)
	a := NewPrivate[float64](sp, 0, 2*pageElems)
	a.Store(p, 3, 7)
	won := a.lookup(3)
	if got := a.install(3); got != won {
		t.Fatal("install replaced an installed page")
	}
	if len(a.pool.free) != 1 {
		t.Fatalf("losing install left %d pages on the free list, want 1", len(a.pool.free))
	}
	if a.Peek(3) != 7 {
		t.Fatal("installed page lost its data")
	}
}

// TestPageCacheRemembers: after a store, the processor's page cache serves
// the page, and a cursor's does after its first access.
func TestPageCacheRemembers(t *testing.T) {
	sp, _ := space(1)
	p := sim.NewGroup(1).Proc(0)
	a := NewPrivate[float64](sp, 0, 4*pageElems)
	a.Store(p, 2*pageElems+5, 1)
	if a.cache(0).hit(a, 2*pageElems+9) == nil {
		t.Fatal("array page cache missed a page it just installed")
	}
	cu := a.Cursor(p)
	cu.Load(2*pageElems + 1)
	if cu.pc.hit(a, 2*pageElems+100) == nil {
		t.Fatal("cursor page cache missed a page it just read")
	}
	if cu.pc.hit(a, 0) != nil {
		t.Fatal("page cache holds an untouched page")
	}
}

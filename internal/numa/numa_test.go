package numa

import (
	"testing"
	"testing/quick"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

func space(procs int) (*Space, *machine.Machine) {
	m := machine.MustNew(machine.Default(procs))
	return NewSpace(m), m
}

func TestCacheBasics(t *testing.T) {
	c := newCache(512, 128) // 1 set x 4 ways: every line shares the set
	if c.access(5) {
		t.Fatal("first access should miss")
	}
	if !c.access(5) {
		t.Fatal("second access should hit")
	}
	// Within associativity: all coexist.
	for _, l := range []uint64{7, 9, 11} {
		c.access(l)
	}
	if !c.present(5) {
		t.Fatal("5 evicted while set had free ways")
	}
	// Fifth line overflows the 4-way set; LRU (5) is the victim after the
	// others were touched more recently.
	c.access(7)
	c.access(9)
	c.access(11)
	if c.access(13) {
		t.Fatal("new line should miss")
	}
	if c.present(5) {
		t.Fatal("LRU line should have been evicted")
	}
	if !c.present(7) || !c.present(13) {
		t.Fatal("recently-used lines lost")
	}
	if !c.invalidate(7) {
		t.Fatal("invalidate should evict present line")
	}
	if c.invalidate(7) {
		t.Fatal("invalidate of absent line should report false")
	}
	if c.cohEvicts != 1 {
		t.Fatalf("cohEvicts = %d, want 1", c.cohEvicts)
	}
	c.flush()
	if c.present(13) {
		t.Fatal("flush did not clear cache")
	}
}

func TestCacheLRUPromotionOnHit(t *testing.T) {
	c := newCache(512, 128) // 1 set x 4 ways
	for _, l := range []uint64{2, 4, 6, 8} {
		c.access(l)
	}
	c.access(2)  // promote the oldest line
	c.access(10) // evicts LRU, which is now 4
	if !c.present(2) {
		t.Fatal("promoted line evicted")
	}
	if c.present(4) {
		t.Fatal("LRU line survived")
	}
}

func TestCacheNonPow2Capacity(t *testing.T) {
	c := newCache(1000, 128) // 1000/128/4 -> 1 set
	slots := 0
	for _, ch := range c.chunks {
		slots += len(ch)
	}
	if slots != cacheWays {
		t.Fatalf("tag slots = %d, want %d", slots, cacheWays)
	}
}

func TestCacheTagChunksLazilyMaterialized(t *testing.T) {
	// A fresh cache must not own a single chunk: all tag storage aliases the
	// shared zero chunk until a line is installed, and flush re-aliases it.
	c := newCache(1<<22, 128) // 4 MiB: 8192 sets, 32 chunks
	owned := func() int {
		n := 0
		for _, o := range c.owned {
			if o {
				n++
			}
		}
		return n
	}
	if got := owned(); got != 0 {
		t.Fatalf("fresh cache owns %d chunks, want 0", got)
	}
	if c.present(7) || c.invalidate(7) {
		t.Fatal("probe of untouched cache found a line")
	}
	if got := owned(); got != 0 {
		t.Fatalf("read-only probes materialized %d chunks, want 0", got)
	}
	c.access(7)
	if got := owned(); got != 1 {
		t.Fatalf("one install owns %d chunks, want 1", got)
	}
	if !c.present(7) || !c.access(7) {
		t.Fatal("installed line not found")
	}
	c.flush()
	if got := owned(); got != 0 {
		t.Fatalf("flushed cache owns %d chunks, want 0", got)
	}
	if c.present(7) {
		t.Fatal("line survived flush")
	}
}

func TestPrivateArrayLocalCost(t *testing.T) {
	sp, m := space(4)
	g := sim.NewGroup(4)
	a := NewPrivate[float64](sp, 2, 1000)
	p := g.Proc(2)
	a.Store(p, 0, 3.14)
	if p.LocalMisses != 1 || p.RemoteMisses != 0 {
		t.Fatalf("first store: local=%d remote=%d", p.LocalMisses, p.RemoteMisses)
	}
	if got := a.Load(p, 0); got != 3.14 {
		t.Fatalf("Load = %v", got)
	}
	if p.CacheHits != 1 {
		t.Fatalf("reload should hit cache, hits=%d", p.CacheHits)
	}
	// Element 1 shares the line with element 0 (128B line, 8B elems).
	a.Load(p, 1)
	if p.CacheHits != 2 {
		t.Fatalf("same-line load should hit, hits=%d", p.CacheHits)
	}
	// Element 16 is the next line.
	a.Load(p, 16)
	if p.LocalMisses != 2 {
		t.Fatalf("next-line load should miss locally, misses=%d", p.LocalMisses)
	}
	wantT := 2*m.Cfg.LocalMissNS + 2*m.Cfg.CacheHitNS
	if p.Now() != wantT {
		t.Fatalf("clock = %v, want %v", p.Now(), wantT)
	}
}

func TestRemoteAccessCost(t *testing.T) {
	sp, m := space(8) // 4 nodes
	g := sim.NewGroup(8)
	a := NewPrivate[float64](sp, 6, 100) // homed on node 3
	p := g.Proc(0)
	a.Load(p, 0)
	if p.RemoteMisses != 1 {
		t.Fatalf("expected remote miss, got %+v", p.Counters)
	}
	h := m.Hops(0, 6)
	want := m.Cfg.RemoteMissNS + sim.Time(h-1)*m.Cfg.RemoteHopNS
	if p.Now() != want {
		t.Fatalf("remote access cost %v, want %v", p.Now(), want)
	}
}

func TestPlacement(t *testing.T) {
	sp, m := space(4)
	// 16KB pages, 8B elems -> 2048 elems per page. 8192 elems = 4 pages.
	a := NewShared[float64](sp, 8192)

	a.PlaceUniform(3)
	for i := 0; i < 8192; i += 2048 {
		if a.Home(i) != 3 {
			t.Fatalf("PlaceUniform: home(%d) = %d", i, a.Home(i))
		}
	}
	a.PlaceInterleave()
	want := []int{0, 1, 2, 3}
	for pg := 0; pg < 4; pg++ {
		if a.Home(pg*2048) != want[pg] {
			t.Fatalf("PlaceInterleave: page %d home %d", pg, a.Home(pg*2048))
		}
	}
	a.PlaceBlock()
	if a.Home(0) != 0 || a.Home(8191) != 3 {
		t.Fatal("PlaceBlock endpoints wrong")
	}
	a.PlaceByElem(func(e int) int { return (e / 2048) % m.Procs() })
	for pg := 0; pg < 4; pg++ {
		if a.Home(pg*2048) != pg {
			t.Fatalf("PlaceByElem: page %d home %d", pg, a.Home(pg*2048))
		}
	}
}

func TestPlacementRejectsBadProc(t *testing.T) {
	sp, _ := space(2)
	a := NewShared[int64](sp, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range home")
		}
	}()
	a.PlaceUniform(5)
}

func TestEpochCoherence(t *testing.T) {
	sp, m := space(2)
	g := sim.NewGroup(2)
	a := NewShared[float64](sp, 256)
	a.PlaceUniform(0)
	p0, p1 := g.Proc(0), g.Proc(1)

	// Both cache line 0.
	a.Load(p0, 0)
	a.Load(p1, 0)
	if p1.CacheHits != 0 {
		t.Fatal("p1 first load should miss")
	}
	a.Load(p1, 0)
	if p1.CacheHits != 1 {
		t.Fatal("p1 reload should hit")
	}

	// p0 writes the line; merge invalidates p1's copy.
	a.Store(p0, 1, 42) // same line as element 0
	pen := sp.MergeEpoch()
	if pen[1] != m.Cfg.CohInvalPerLine {
		t.Fatalf("p1 penalty = %v, want %v", pen[1], m.Cfg.CohInvalPerLine)
	}
	if pen[0] != 0 {
		t.Fatalf("writer penalized: %v", pen[0])
	}

	// p1's next access misses again (coherence miss).
	misses := p1.LocalMisses
	a.Load(p1, 0)
	if p1.LocalMisses != misses+1 {
		t.Fatal("post-invalidation access should miss")
	}
	// Writer keeps its copy.
	hits := p0.CacheHits
	a.Load(p0, 0)
	if p0.CacheHits != hits+1 {
		t.Fatal("writer's copy should survive the merge")
	}
	if ev := sp.CohEvictions(); ev[1] != 1 || ev[0] != 0 {
		t.Fatalf("CohEvictions = %v", ev)
	}
}

func TestEpochClearsWriteSets(t *testing.T) {
	sp, _ := space(2)
	g := sim.NewGroup(2)
	a := NewShared[float64](sp, 256)
	p0 := g.Proc(0)
	a.Store(p0, 0, 1)
	sp.MergeEpoch()
	// Second merge with no new writes must not invalidate anything.
	g.Proc(1).ID()
	a.Load(g.Proc(1), 0)
	pen := sp.MergeEpoch()
	if pen[1] != 0 {
		t.Fatalf("stale write-set leaked into second epoch: %v", pen)
	}
}

func TestWriteDedup(t *testing.T) {
	sp, _ := space(2)
	g := sim.NewGroup(2)
	a := NewShared[float64](sp, 256)
	p0 := g.Proc(0)
	for i := 0; i < 16; i++ { // 16 stores, all one line
		a.Store(p0, i, float64(i))
	}
	if n := len(a.writeLines[0]); n != 1 {
		t.Fatalf("write-set has %d lines, want 1 (dedup)", n)
	}
}

func TestTouchRangeAndFill(t *testing.T) {
	sp, _ := space(1)
	g := sim.NewGroup(1)
	a := NewPrivate[float64](sp, 0, 64) // 4 lines of 16 elems
	p := g.Proc(0)
	a.TouchRange(p, 0, 64, false)
	if p.LocalMisses != 4 {
		t.Fatalf("TouchRange charged %d misses, want 4", p.LocalMisses)
	}
	a.Fill(p, 0, 64, 9)
	for i := 0; i < 64; i++ {
		if a.Peek(i) != 9 {
			t.Fatal("Fill did not write data")
		}
	}
	a.TouchRange(p, 5, 5, true) // empty: no-op
}

func TestLineRange(t *testing.T) {
	sp, _ := space(1)
	a := NewPrivate[float64](sp, 0, 64)
	lo, hi := a.LineRange(0, 16)
	if hi-lo != 1 {
		t.Fatalf("16 elems of 8B in 128B lines = 1 line, got %d", hi-lo)
	}
	lo, hi = a.LineRange(0, 17)
	if hi-lo != 2 {
		t.Fatalf("17 elems = 2 lines, got %d", hi-lo)
	}
	if lo2, hi2 := a.LineRange(5, 5); lo2 != 0 || hi2 != 0 {
		t.Fatal("empty range should be (0,0)")
	}
}

func TestAddressDisjointness(t *testing.T) {
	sp, _ := space(1)
	a := NewPrivate[byte](sp, 0, 100)
	b := NewPrivate[byte](sp, 0, 100)
	alo, ahi := a.LineRange(0, 100)
	blo, bhi := b.LineRange(0, 100)
	if !(ahi <= blo || bhi <= alo) {
		t.Fatalf("arrays overlap in line space: [%d,%d) vs [%d,%d)", alo, ahi, blo, bhi)
	}
}

// Property: identical access sequences give identical virtual times (the
// determinism guarantee everything else relies on).
func TestDeterministicCost(t *testing.T) {
	f := func(idx []uint16) bool {
		run := func() sim.Time {
			sp, _ := space(4)
			g := sim.NewGroup(4)
			a := NewShared[float64](sp, 4096)
			a.PlaceInterleave()
			p := g.Proc(1)
			for _, ix := range idx {
				i := int(ix) % 4096
				if ix%3 == 0 {
					a.Store(p, i, float64(ix))
				} else {
					a.Load(p, i)
				}
			}
			sp.MergeEpoch()
			return p.Now()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a second sweep over data that fits in cache is never slower than
// the first (monotone benefit of caching).
func TestCacheReuseProperty(t *testing.T) {
	sp, _ := space(1)
	g := sim.NewGroup(1)
	a := NewPrivate[float64](sp, 0, 2048)
	p := g.Proc(0)
	a.TouchRange(p, 0, 2048, false)
	cold := p.Now()
	a.TouchRange(p, 0, 2048, false)
	warm := p.Now() - cold
	if warm >= cold {
		t.Fatalf("warm sweep (%v) not faster than cold (%v)", warm, cold)
	}
}

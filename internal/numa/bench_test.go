package numa

import (
	"math/rand"
	"testing"

	"o2k/internal/sim"
)

// Host-performance microbenchmarks of the memory-system simulator: these
// bound how much simulated work a real second buys.

func BenchmarkLoadHit(b *testing.B) {
	sp, _ := space(1)
	g := sim.NewGroup(1)
	a := NewPrivate[float64](sp, 0, 1024)
	p := g.Proc(0)
	a.Load(p, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Load(p, 0)
	}
}

func BenchmarkLoadStream(b *testing.B) {
	sp, _ := space(1)
	g := sim.NewGroup(1)
	a := NewPrivate[float64](sp, 0, 1<<16)
	p := g.Proc(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Load(p, i&(1<<16-1))
	}
}

func BenchmarkStoreSharedTracked(b *testing.B) {
	sp, _ := space(4)
	g := sim.NewGroup(4)
	a := NewShared[float64](sp, 1<<16)
	p := g.Proc(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Store(p, i&(1<<16-1), 1)
	}
}

func BenchmarkMergeEpoch(b *testing.B) {
	sp, _ := space(8)
	g := sim.NewGroup(8)
	a := NewShared[float64](sp, 1<<14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for q := 0; q < 8; q++ {
			p := g.Proc(q)
			for k := 0; k < 256; k++ {
				a.Store(p, (q*256+k)*16%(1<<14), 1)
			}
		}
		b.StartTimer()
		sp.MergeEpoch()
	}
}

func BenchmarkTouchRange(b *testing.B) {
	sp, _ := space(1)
	g := sim.NewGroup(1)
	a := NewPrivate[float64](sp, 0, 1<<16)
	p := g.Proc(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TouchRange(p, 0, 1<<12, false)
	}
}

// BenchmarkReplayLoads charges a walk-shaped trace (a cell read followed by
// a burst of leaf loads, repeated) through the four-cursor batched replay —
// the barnes force phase's hot loop.
func BenchmarkReplayLoads(b *testing.B) {
	sp, _ := space(1)
	g := sim.NewGroup(1)
	x := NewPrivate[float64](sp, 0, 4096)
	y := NewPrivate[float64](sp, 0, 4096)
	m := NewPrivate[float64](sp, 0, 4096)
	cl := NewPrivate[float64](sp, 0, 3*512)
	var tr []int32
	for c := 0; c < 512; c++ {
		tr = append(tr, int32(^c))
		for j := 0; j < 6; j++ {
			tr = append(tr, int32((c*11+j*3)%4096))
		}
	}
	p := g.Proc(0)
	cx, cy, cm, cc := x.Cursor(p), y.Cursor(p), m.Cursor(p), cl.Cursor(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReplayLoads(tr, &cx, &cy, &cm, &cc)
	}
	b.StopTimer()
	cx.Flush()
	cy.Flush()
	cm.Flush()
	cc.Flush()
}

// BenchmarkLoadArmSweep runs the stencil inner loop's access shape: three
// concurrent line streams of one array, each carried by its own Arm memo
// (the per-proc memo alone would thrash on this pattern).
func BenchmarkLoadArmSweep(b *testing.B) {
	sp, _ := space(1)
	g := sim.NewGroup(1)
	const n = 4096
	a := NewPrivate[float64](sp, 0, 3*n)
	p := g.Proc(0)
	cu := a.Cursor(p)
	var up, down, row Arm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n
		_ = cu.LoadArm(&up, j) + cu.LoadArm(&down, n+j) + cu.LoadArm(&row, 2*n+j)
	}
	b.StopTimer()
	cu.Flush()
}

// BenchmarkMergeEpochWide is the merge at scale: 64 caches with disjoint
// per-proc write blocks, where the per-(array, proc) install ranges and
// occupancy signatures let each writer skip the 63 caches that never held
// its lines.
func BenchmarkMergeEpochWide(b *testing.B) {
	const procs = 64
	sp, _ := space(procs)
	g := sim.NewGroup(procs)
	a := NewShared[float64](sp, procs*4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for q := 0; q < procs; q++ {
			p := g.Proc(q)
			for k := 0; k < 64; k++ {
				a.Store(p, q*4096+k*8, 1)
			}
		}
		b.StartTimer()
		sp.MergeEpoch()
	}
}

// BenchmarkCursorEdgeLoop runs the adaptive mesh's edge-flux loop shape over
// written arrays: per edge, load both endpoints of one array, then
// read-modify-write both endpoints of another. Endpoints are near each other
// in index space, as in a partitioned mesh, but rarely on the same line.
func BenchmarkCursorEdgeLoop(b *testing.B) {
	sp, _ := space(1)
	g := sim.NewGroup(1)
	const n = 1 << 16
	u := NewPrivate[float64](sp, 0, n)
	acc := NewPrivate[float64](sp, 0, n)
	p := g.Proc(0)
	for i := 0; i < n; i++ {
		u.Store(p, i, float64(i))
		acc.Store(p, i, 0)
	}
	rng := rand.New(rand.NewSource(1))
	edges := make([][2]int, 4096)
	for k := range edges {
		a := rng.Intn(n - 512)
		edges[k] = [2]int{a, a + 1 + rng.Intn(511)}
	}
	cu, ca := u.Cursor(p), acc.Cursor(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i&(len(edges)-1)]
		f := cu.Load(e[0]) - cu.Load(e[1])
		ca.Store(e[0], ca.Load(e[0])+f)
		ca.Store(e[1], ca.Load(e[1])-f)
	}
	b.StopTimer()
	cu.Flush()
	ca.Flush()
}

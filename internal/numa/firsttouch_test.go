package numa_test

import (
	"testing"

	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/shm"
	"o2k/internal/sim"
)

// TestConcurrentFirstTouch races first touches of the same host pages under
// the goroutine engine, where processors really run in parallel: processor 0
// stores the even elements of its own block while processor 1 shm.PutIdx-es
// the odd elements of the same pages. Whichever side installs a page first,
// the other must write into that page, so no write may be lost, and neither
// may land on the shared zero page. Run it under -race.
func TestConcurrentFirstTouch(t *testing.T) {
	const n = 64 * 128 // 64 host pages
	m := machine.MustNew(machine.Default(2))
	w := shm.NewWorld(m, numa.NewSpace(m))
	g := sim.NewGroupOn(sim.GoroutineEngine(), 2)
	for round := 0; round < 20; round++ {
		s := shm.AllocWorld[float64](w, n)
		g.Run(func(p *sim.Proc) {
			pe := w.PE(p)
			if pe.ID() == 0 {
				cu := s.Local(pe).Cursor(p)
				for i := 0; i < n; i += 2 {
					cu.Store(i, float64(i+1))
				}
				cu.Flush()
			} else {
				var idx []int32
				var vals []float64
				for i := 1; i < n; i += 2 {
					idx = append(idx, int32(i))
					vals = append(vals, float64(i+1))
				}
				for k := 0; k < len(idx); k += 16 {
					shm.PutIdx(pe, s, 0, idx[k:k+16], vals[k:k+16])
				}
			}
			pe.Barrier()
		})
		blk := s.LocalOf(0)
		for i := 0; i < n; i++ {
			if v := blk.Peek(i); v != float64(i+1) {
				t.Fatalf("round %d: element %d = %v, want %v (a first-touch write was lost)", round, i, v, i+1)
			}
		}
		shm.Free(s)
	}
	if !numa.ZeroPageClean() {
		t.Fatal("shared zero page written")
	}
}

package shm

import (
	"testing"

	"o2k/internal/sim"
)

func TestPutIdxScattersAndInvalidates(t *testing.T) {
	w, g, _ := world(2)
	s := AllocWorld[float64](w, 256)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		if pe.ID() == 1 {
			// Warm scattered lines.
			s.Local(pe).Load(p, 10)
			s.Local(pe).Load(p, 100)
		}
		pe.Barrier()
		if pe.ID() == 0 {
			PutIdx(pe, s, 1, []int32{10, 100, 200}, []float64{1, 2, 3})
		}
		pe.Barrier()
		if pe.ID() == 1 {
			loc := s.Local(pe)
			misses := p.LocalMisses
			if loc.Load(p, 10) != 1 || loc.Load(p, 100) != 2 || loc.Load(p, 200) != 3 {
				t.Error("putidx data wrong")
			}
			if p.LocalMisses < misses+2 {
				t.Error("putidx did not invalidate target lines")
			}
		}
	})
}

func TestPutIdxMismatchedPanics(t *testing.T) {
	w, g, _ := world(2)
	s := AllocWorld[float64](w, 16)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		if pe.ID() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		PutIdx(pe, s, 1, []int32{1, 2}, []float64{1})
	})
}

func TestPutIdxEmptyNoCharge(t *testing.T) {
	w, g, _ := world(2)
	s := AllocWorld[float64](w, 16)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		t0 := p.Now()
		PutIdx(pe, s, 1-pe.ID(), nil, nil)
		if p.Now() != t0 {
			t.Error("empty putidx charged time")
		}
	})
}

func TestCollectiveAllocIdenticalHandles(t *testing.T) {
	w, g, _ := world(3)
	handles := make([]*Sym[int64], 3)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		handles[pe.ID()] = Alloc[int64](pe, 32)
	})
	if handles[0] != handles[1] || handles[1] != handles[2] {
		t.Fatal("collective alloc returned distinct handles")
	}
}

func TestSelfPutNotLogged(t *testing.T) {
	w, g, _ := world(2)
	s := AllocWorld[float64](w, 64)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		if pe.ID() == 0 {
			s.Local(pe).Load(p, 0) // warm own line
			Put(pe, s, 0, 0, []float64{5})
		}
		pe.Barrier()
		if pe.ID() == 0 {
			hits := p.CacheHits
			if s.Local(pe).Load(p, 0) != 5 {
				t.Error("self put lost")
			}
			if p.CacheHits != hits+1 {
				t.Error("self put invalidated own cache")
			}
		}
	})
}

func TestFetchAddSerializesVirtualTime(t *testing.T) {
	w, g, _ := world(4)
	s := AllocWorld[int64](w, 1)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		for i := 0; i < 10; i++ {
			FetchAdd(pe, s, 0, 0, 1)
		}
	})
	if v := s.LocalOf(0).Peek(0); v != 40 {
		t.Fatalf("atomic counter = %d, want 40", v)
	}
}

func TestBarrierManyEpochs(t *testing.T) {
	w, g, _ := world(4)
	s := AllocWorld[float64](w, 128)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		for epoch := 0; epoch < 50; epoch++ {
			Put(pe, s, (pe.ID()+1)%4, pe.ID(), []float64{float64(epoch)})
			pe.Barrier()
			got := s.Local(pe).Load(p, (pe.ID()+3)%4)
			// Second barrier: the next epoch's put must not overwrite the
			// slot before everyone has read it — the standard SHMEM
			// double-buffer/epoch discipline.
			pe.Barrier()
			if got != float64(epoch) {
				t.Errorf("epoch %d: got %v", epoch, got)
				return
			}
		}
	})
}

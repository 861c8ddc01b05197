package shm

import (
	"testing"

	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

func world(procs int) (*World, *sim.Group, *machine.Machine) {
	m := machine.MustNew(machine.Default(procs))
	sp := numa.NewSpace(m)
	return NewWorld(m, sp), sim.NewGroup(procs), m
}

func TestSymmetricAlloc(t *testing.T) {
	w, g, _ := world(4)
	handles := make([]*Sym[float64], 4)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		handles[pe.ID()] = Alloc[float64](pe, 100)
	})
	for i := 1; i < 4; i++ {
		if handles[i] != handles[0] {
			t.Fatal("symmetric allocation returned different handles")
		}
	}
	if handles[0].Len() != 100 {
		t.Fatalf("Len = %d", handles[0].Len())
	}
}

func TestPutVisibleAfterBarrier(t *testing.T) {
	w, g, _ := world(2)
	var got float64
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		s := Alloc[float64](pe, 10)
		if pe.ID() == 0 {
			Put(pe, s, 1, 3, []float64{2.5})
		}
		pe.Barrier()
		if pe.ID() == 1 {
			got = s.Local(pe).Load(p, 3)
		}
	})
	if got != 2.5 {
		t.Fatalf("put data not visible: %v", got)
	}
}

func TestPutInvalidatesTargetCache(t *testing.T) {
	w, g, m := world(2)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		s := Alloc[float64](pe, 64)
		if pe.ID() == 1 {
			s.Local(pe).Load(p, 0) // warm target's cache
			s.Local(pe).Load(p, 0)
			if p.CacheHits != 1 {
				t.Errorf("expected warm hit, hits=%d", p.CacheHits)
			}
		}
		pe.Barrier()
		if pe.ID() == 0 {
			Put(pe, s, 1, 0, []float64{7})
		}
		pe.Barrier()
		if pe.ID() == 1 {
			misses := p.LocalMisses
			if v := s.Local(pe).Load(p, 0); v != 7 {
				t.Errorf("got %v, want 7", v)
			}
			if p.LocalMisses != misses+1 {
				t.Error("target should re-miss after put invalidation")
			}
		}
	})
	_ = m
}

func TestGetRoundTrip(t *testing.T) {
	w, g, m := world(4)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		s := Alloc[int64](pe, 8)
		loc := s.Local(pe)
		for i := 0; i < 8; i++ {
			loc.Store(p, i, int64(pe.ID()*10+i))
		}
		pe.Barrier()
		src := (pe.ID() + 1) % 4
		before := p.Now()
		got := Get[int64](pe, s, src, 2, 3)
		if p.Now() <= before {
			t.Error("get charged no time")
		}
		for i, v := range got {
			if v != int64(src*10+2+i) {
				t.Errorf("get[%d] = %d", i, v)
			}
		}
	})
	_ = m
}

func TestGetCostExceedsPutCost(t *testing.T) {
	w, g, _ := world(4)
	var putT, getT sim.Time
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		s := Alloc[float64](pe, 100)
		pe.Barrier()
		if pe.ID() == 0 {
			t0 := p.Now()
			Put(pe, s, 2, 0, make([]float64, 10))
			putT = p.Now() - t0
			t0 = p.Now()
			Get[float64](pe, s, 2, 0, 10)
			getT = p.Now() - t0
		}
	})
	if getT <= putT {
		t.Fatalf("get (%v) should cost more than put (%v): round trip", getT, putT)
	}
}

func TestLocalPutSkipsWire(t *testing.T) {
	w, g, _ := world(2)
	var selfT, remoteT sim.Time
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		s := Alloc[float64](pe, 100)
		if pe.ID() == 0 {
			t0 := p.Now()
			Put(pe, s, 0, 0, make([]float64, 10))
			selfT = p.Now() - t0
			t0 = p.Now()
			Put(pe, s, 1, 0, make([]float64, 10))
			remoteT = p.Now() - t0
		}
	})
	if selfT >= remoteT {
		t.Fatalf("local put (%v) should be cheaper than remote (%v)", selfT, remoteT)
	}
}

func TestFetchAdd(t *testing.T) {
	w, g, _ := world(4)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		s := Alloc[int64](pe, 1)
		pe.Barrier()
		FetchAdd(pe, s, 0, 0, int64(pe.ID()+1)) // 1+2+3+4
		pe.Barrier()
		if v := s.LocalOf(0).Peek(0); v != 10 {
			t.Errorf("counter = %d, want 10", v)
		}
	})
}

func TestQuietAndFenceCharge(t *testing.T) {
	w, g, m := world(2)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		t0 := p.Now()
		pe.Quiet()
		pe.Fence()
		if p.Now()-t0 != 2*m.Cfg.ShmFenceNS {
			t.Errorf("fence cost = %v", p.Now()-t0)
		}
	})
}

func TestAllreduceAndExscan(t *testing.T) {
	w, g, _ := world(4)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		if s := Allreduce1(pe, float64(pe.ID()), OpSum); s != 6 {
			t.Errorf("sum = %v", s)
		}
		if mx := Allreduce1(pe, pe.ID(), OpMax); mx != 3 {
			t.Errorf("max = %v", mx)
		}
		if mn := Allreduce1(pe, pe.ID()+5, OpMin); mn != 5 {
			t.Errorf("min = %v", mn)
		}
		before, total := Exscan(pe, 2)
		if before != 2*pe.ID() || total != 8 {
			t.Errorf("exscan: %d %d", before, total)
		}
	})
}

func TestBroadcastAndCollect(t *testing.T) {
	w, g, _ := world(3)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		var data []int32
		if pe.ID() == 1 {
			data = []int32{11, 22}
		}
		got := Broadcast(pe, 1, data)
		if len(got) != 2 || got[1] != 22 {
			t.Errorf("broadcast: %v", got)
		}
		mine := make([]int32, pe.ID()) // lengths 0,1,2
		for i := range mine {
			mine[i] = int32(pe.ID())
		}
		all, offs := Collect(pe, mine)
		if len(all) != 3 {
			t.Errorf("collect len = %d", len(all))
		}
		if offs[1] != 0 || offs[2] != 1 {
			t.Errorf("collect offsets: %v", offs)
		}
	})
}

func TestShmDeterministicTiming(t *testing.T) {
	run := func() sim.Time {
		w, g, _ := world(8)
		g.Run(func(p *sim.Proc) {
			pe := w.PE(p)
			s := Alloc[float64](pe, 64)
			for iter := 0; iter < 10; iter++ {
				Put(pe, s, (pe.ID()+1)%8, iter%64, []float64{float64(iter)})
				pe.Barrier()
				s.Local(pe).Load(p, iter%64)
			}
		})
		return g.MaxTime()
	}
	first := run()
	for i := 0; i < 4; i++ {
		if got := run(); got != first {
			t.Fatalf("SHMEM timing nondeterministic: %v vs %v", got, first)
		}
	}
}

func TestEmptyPutGetNoCharge(t *testing.T) {
	w, g, _ := world(2)
	g.Run(func(p *sim.Proc) {
		pe := w.PE(p)
		s := Alloc[float64](pe, 4)
		t0 := p.Now()
		Put(pe, s, 1-pe.ID(), 0, nil)
		if p.Now() != t0 {
			t.Error("empty put charged time")
		}
		got := Get[float64](pe, s, 1-pe.ID(), 0, 0)
		if len(got) != 0 || p.Now() != t0 {
			t.Error("empty get misbehaved")
		}
	})
}

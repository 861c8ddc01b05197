package numa

import (
	"sync"
	"sync/atomic"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

// Space is the memory system of one simulated machine run: it owns the
// per-processor cache simulators, hands out disjoint address ranges to
// arrays, and performs the epoch coherence merge for shared arrays.
type Space struct {
	M *machine.Machine

	caches   []*cache
	nextBase atomic.Uint64

	mu     sync.Mutex
	shared []epochTracker // shared arrays with live write-sets

	// pools holds the free lists of released host pages, one *pagePool[T]
	// per element type (see poolOf). Only host memory is recycled: simulated
	// addresses always come fresh from reserve, and a reused page is
	// re-zeroed, so the model cannot observe the difference. See Release.
	pools map[any]any

	// Scratch for MergeEpoch, reused across barrier episodes. Safe because
	// MergeEpoch only runs from a barrier rendezvous hook while every
	// processor is blocked, and each participant reads its penalty entry
	// before leaving the barrier — so the previous episode's slices are
	// fully consumed before the next merge can start.
	mergeEvicts []uint64
	mergePen    []sim.Time
	// Per-writer scratch for mergeEpoch: the write-set's global line
	// addresses and their Bloom-signature bits, computed once per writer and
	// reused against every target cache.
	mergeGls  []uint64
	mergeSigs []uint64
}

// epochTracker is the slice of Array behaviour the coherence merge needs.
type epochTracker interface {
	// mergeEpoch applies this array's per-proc write-sets to every other
	// processor's cache, accumulating per-proc invalidation counts into
	// evicts, then clears the write-sets.
	mergeEpoch(caches []*cache, evicts []uint64)
}

// NewSpace creates the memory system for machine m.
func NewSpace(m *machine.Machine) *Space {
	s := &Space{M: m, caches: make([]*cache, m.Procs())}
	for i := range s.caches {
		s.caches[i] = newCache(m.Cfg.CacheBytes, m.Cfg.LineBytes)
	}
	s.nextBase.Store(uint64(m.Cfg.PageBytes)) // keep address 0 unused
	return s
}

// reserve claims an address range of n bytes aligned to the page size.
//
// The total address range is bounded so that every global line index fits a
// 32-bit cache tag (see cache.go): with 128-byte lines that is half a
// terabyte of simulated memory, far beyond any workload here — the backing
// host pages would exhaust host memory long before this panics.
func (s *Space) reserve(n int) uint64 {
	pb := uint64(s.M.Cfg.PageBytes)
	sz := (uint64(n) + pb - 1) / pb * pb
	if sz == 0 {
		sz = pb
	}
	end := s.nextBase.Add(sz)
	if end/uint64(s.M.Cfg.LineBytes) >= 1<<32-1 {
		panic("numa: address space exhausted (global line index no longer fits a 32-bit cache tag)")
	}
	return end - sz
}

func (s *Space) registerShared(t epochTracker) {
	s.mu.Lock()
	s.shared = append(s.shared, t)
	s.mu.Unlock()
}

func (s *Space) unregisterShared(t epochTracker) {
	s.mu.Lock()
	for i, st := range s.shared {
		if st == t {
			s.shared = append(s.shared[:i], s.shared[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// MergeEpoch resolves coherence for all shared arrays: every line written by
// some processor since the previous merge is invalidated in all other caches.
// It returns the per-processor virtual-time penalty (invalidation processing)
// that the caller — a barrier implementation — must charge before releasing
// each processor.
//
// MergeEpoch must be called while every processor in the space is blocked
// (i.e., from inside a barrier's rendezvous), since it touches all caches.
func (s *Space) MergeEpoch() []sim.Time {
	if s.mergeEvicts == nil {
		s.mergeEvicts = make([]uint64, len(s.caches))
		s.mergePen = make([]sim.Time, len(s.caches))
	}
	evicts := s.mergeEvicts
	clear(evicts)
	s.mu.Lock()
	trackers := s.shared
	s.mu.Unlock()
	for _, t := range trackers {
		t.mergeEpoch(s.caches, evicts)
	}
	pen := s.mergePen
	per := s.M.Cfg.CohInvalPerLine
	for i, e := range evicts {
		pen[i] = sim.Time(e) * per
	}
	return pen
}

// InvalidateLines drops the given global line addresses from processor pe's
// cache and returns how many were actually evicted. Like MergeEpoch, it must
// only be called while pe is blocked at a rendezvous.
func (s *Space) InvalidateLines(pe int, lines []uint64) int {
	c := s.caches[pe]
	n := 0
	for _, l := range lines {
		if c.invalidate(l) {
			n++
		}
	}
	return n
}

// InvalidateSpan drops the contiguous global line range [lo, hi) from
// processor pe's cache and returns how many lines were actually evicted. The
// occupancy filter makes the no-overlap case O(1). Like MergeEpoch, it must
// only be called while pe is blocked at a rendezvous.
func (s *Space) InvalidateSpan(pe int, lo, hi uint64) int {
	c := s.caches[pe]
	if c.live == 0 || hi <= lo || hi-1 < c.minLine || lo > c.maxLine {
		return 0
	}
	n := 0
	for l := lo; l < hi; l++ {
		if c.invalidate(l) {
			n++
		}
	}
	return n
}

// CohEvictions reports, per processor, how many cache lines coherence has
// invalidated so far (a proxy for coherence misses in the traffic tables).
func (s *Space) CohEvictions() []uint64 {
	out := make([]uint64, len(s.caches))
	for i, c := range s.caches {
		out[i] = c.cohEvicts
	}
	return out
}

// FlushCaches empties every processor cache; used between benchmark
// repetitions so each repetition starts cold.
func (s *Space) FlushCaches() {
	for _, c := range s.caches {
		c.flush()
	}
}

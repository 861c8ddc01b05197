package numa

import (
	"fmt"
	mbits "math/bits"
	"sync/atomic"
	"unsafe"

	"o2k/internal/sim"
)

// Array is a typed, placement-aware memory region. Elements live in host
// pages allocated on first store (pages.go), so applications compute real
// results; Load, Store, and Touch* additionally charge virtual time to the
// accessing processor according to the cache simulator and the touched
// page's home.
//
// Two kinds exist:
//
//   - Private arrays (NewPrivate) model per-process memory in the MP and
//     SHMEM programs: all pages are homed on the owner and no coherence
//     tracking is done. Only the owner should access them (puts/gets in the
//     SHMEM runtime are the costed exception).
//
//   - Shared arrays (NewShared) model CC-SAS data: pages may be placed
//     anywhere, and writes are recorded per processor so the next coherence
//     merge (Space.MergeEpoch, invoked by the sas barrier) invalidates the
//     written lines in every other cache.
//
// Data-race discipline follows the source programming models: between two
// synchronization points, an element of a shared array may be written by at
// most one processor (and then must not be read by others). The runtimes'
// tests enforce this for the applications in this repository.
type Array[T any] struct {
	sp       *Space
	elemSize uint64
	base     uint64 // byte address of element 0 (page aligned)
	baseLine uint64
	pageHome []int32 // home processor per page
	shared   bool

	// Hot-path caches, filled once in newArray (DESIGN.md §5.4). charge runs
	// for every simulated access — millions per experiment — so the shifts
	// replace the lineOf/pageOf divisions (LineBytes and PageBytes are
	// validated powers of two) and the machine tables replace the per-miss
	// Hops/MemAccess calls. All of them are derived, never authoritative:
	// the reference path in ref.go recomputes everything from Cfg.
	caches       []*cache
	lineShift    uint // log2(LineBytes)
	pageShift    uint // log2(PageBytes)
	pageOverLine uint // pageShift - lineShift: line index -> page index
	cacheHitNS   sim.Time
	procNode     []int32    // machine.ProcNode table
	nodeLat      []sim.Time // machine.NodeLat table, row-major by source node
	nodes        int

	// last[me] remembers the line this processor most recently accessed in
	// this array, with the cache generation at which it did. While the
	// generation matches (no tag has moved since), that line is provably
	// still the MRU way of its set, so a repeat access is a hit with no LRU
	// reorder — chargeable with two compares, no set hash, no tag probe. The
	// tags arrays are large enough to miss in the host cache; this 16-byte
	// slot stays hot. Never consulted or written on the reference path.
	last []lastRef

	// Host backing (pages.go): n elements in a two-level page table whose
	// untouched slots alias the read-only zero directory and page, and per
	// processor a cache over it for Load, Store and the batch helpers.
	hot   []*pageCache[T]
	n     int
	dirs  []atomic.Pointer[pageDir[T]]
	zdir  *pageDir[T]
	zpage *hostPage[T]
	pool  *pagePool[T]

	// Epoch write-sets (shared arrays only).
	writeLines [][]uint32 // per proc: line indices written this epoch
	writeBits  [][]uint64 // per proc: dedup bitmap over line indices

	// inst[q] bounds the array-local lines processor q has ever installed in
	// its cache (shared arrays only): a conservative superset of this array's
	// residency in cache q, never shrunk by eviction or flush. Address ranges
	// are never reused (Space.reserve), so a line of this array can only enter
	// a cache through this array's accessors — the merge may therefore skip
	// any cache whose install range misses a written line. At large processor
	// counts a cache holds only its partition (plus ghost halo) of each array,
	// so this per-array range stays sharp where the cache-global occupancy
	// filters saturate.
	inst []instRange
}

// instRange is a closed [lo, hi] interval of array-local line indices;
// lo > hi means empty.
type instRange struct {
	lo, hi uint32
}

// lastRef is one entry of Array.last: line is the global line address + 1
// (0 = never set), gen the owning cache's mutation count when it was stored.
type lastRef struct {
	line uint64
	gen  uint64
}

// NewPrivate allocates n elements of private memory homed on owner.
func NewPrivate[T any](sp *Space, owner, n int) *Array[T] {
	a := newArray[T](sp, n)
	a.PlaceUniform(owner)
	return a
}

// NewShared allocates n elements of shared memory with coherence tracking.
// Pages default to home processor 0; call a Place* method to distribute.
func NewShared[T any](sp *Space, n int) *Array[T] {
	a := newArray[T](sp, n)
	a.shared = true
	p := sp.M.Procs()
	a.writeLines = make([][]uint32, p)
	a.writeBits = make([][]uint64, p)
	a.inst = make([]instRange, p)
	for i := range a.inst {
		a.inst[i].lo = ^uint32(0)
	}
	sp.registerShared(a)
	return a
}

func newArray[T any](sp *Space, n int) *Array[T] {
	if n < 0 {
		panic("numa: negative array length")
	}
	var z T
	es := uint64(unsafe.Sizeof(z))
	if es == 0 {
		es = 1
	}
	bytes := es * uint64(n)
	base := sp.reserve(int(bytes))
	pb := uint64(sp.M.Cfg.PageBytes)
	pages := (bytes + pb - 1) / pb
	if pages == 0 {
		pages = 1
	}
	lineShift := uint(mbits.TrailingZeros64(uint64(sp.M.Cfg.LineBytes)))
	pageShift := uint(mbits.TrailingZeros64(pb))
	a := &Array[T]{
		sp:           sp,
		elemSize:     es,
		base:         base,
		baseLine:     base >> lineShift,
		pageHome:     make([]int32, pages),
		caches:       sp.caches,
		lineShift:    lineShift,
		pageShift:    pageShift,
		pageOverLine: pageShift - lineShift,
		cacheHitNS:   sp.M.Cfg.CacheHitNS,
		procNode:     sp.M.ProcNode(),
		nodeLat:      sp.M.NodeLat(),
		nodes:        sp.M.Nodes(),
		last:         make([]lastRef, sp.M.Procs()),
	}
	a.initPages(n, sp.M.Procs())
	return a
}

// Release hands a's host pages to its Space's free list and detaches the
// array; any later access panics.
// Only call it when no simulated code can touch the array again (the arrays
// of a finished adaptation cycle, once the next cycle's remap has read them).
// Shared arrays are also dropped from the coherence-merge roster; their
// write-sets must be empty, i.e. a merge has run since the last write.
// Simulated addresses are never reused, so the model cannot observe a
// Release: only host memory is recycled.
func Release[T any](a *Array[T]) {
	if a == nil || a.dirs == nil {
		return
	}
	if a.shared {
		for _, wl := range a.writeLines {
			if len(wl) != 0 {
				panic("numa: Release of shared array with unmerged writes")
			}
		}
		a.sp.unregisterShared(a)
	}
	a.releasePages()
}

// Len returns the element count.
func (a *Array[T]) Len() int { return a.n }

// Bytes returns the allocation size in bytes.
func (a *Array[T]) Bytes() int { return int(a.elemSize) * a.n }

// --- Placement -------------------------------------------------------------

// PlaceUniform homes every page on processor owner.
func (a *Array[T]) PlaceUniform(owner int) {
	a.checkProc(owner)
	for i := range a.pageHome {
		a.pageHome[i] = int32(owner)
	}
}

// PlaceInterleave homes page i on processor i mod P (round-robin), the
// classic "spread everything" placement.
func (a *Array[T]) PlaceInterleave() {
	p := int32(a.sp.M.Procs())
	for i := range a.pageHome {
		a.pageHome[i] = int32(i) % p
	}
}

// PlaceBlock homes pages in contiguous blocks: processor k gets the pages
// covering elements [k*n/P, (k+1)*n/P).
func (a *Array[T]) PlaceBlock() {
	a.PlaceByElem(func(i int) int {
		return i * a.sp.M.Procs() / max(a.n, 1)
	})
}

// PlaceByElem homes each page on ownerOf(first element in the page). This is
// the deterministic stand-in for first-touch placement: pass the same owner
// function the application uses to initialize the array.
func (a *Array[T]) PlaceByElem(ownerOf func(elem int) int) {
	pb := uint64(a.sp.M.Cfg.PageBytes)
	for pg := range a.pageHome {
		elem := int(uint64(pg) * pb / a.elemSize)
		if elem >= a.n {
			elem = a.n - 1
		}
		if elem < 0 {
			elem = 0
		}
		o := ownerOf(elem)
		a.checkProc(o)
		a.pageHome[pg] = int32(o)
	}
}

// RehomeByElem re-places every page like PlaceByElem and returns how many
// pages actually changed home — the input to a page-migration cost model.
// It must only be called while no processor is accessing the array (between
// SPMD regions or at a rendezvous).
func (a *Array[T]) RehomeByElem(ownerOf func(elem int) int) (moved int) {
	pb := uint64(a.sp.M.Cfg.PageBytes)
	for pg := range a.pageHome {
		elem := int(uint64(pg) * pb / a.elemSize)
		if elem >= a.n {
			elem = a.n - 1
		}
		if elem < 0 {
			elem = 0
		}
		o := ownerOf(elem)
		a.checkProc(o)
		if a.pageHome[pg] != int32(o) {
			a.pageHome[pg] = int32(o)
			moved++
		}
	}
	return moved
}

// Home returns the home processor of the page containing element i.
func (a *Array[T]) Home(i int) int {
	return int(a.pageHome[a.pageOf(i)])
}

func (a *Array[T]) checkProc(p int) {
	if p < 0 || p >= a.sp.M.Procs() {
		panic(fmt.Sprintf("numa: processor %d out of range [0,%d)", p, a.sp.M.Procs()))
	}
}

func (a *Array[T]) pageOf(i int) int {
	return int(uint64(i) * a.elemSize >> a.pageShift)
}

func (a *Array[T]) lineOf(i int) uint32 {
	return uint32(uint64(i) * a.elemSize >> a.lineShift)
}

// --- Costed access ---------------------------------------------------------

// charge runs the cache/NUMA cost model for one access to local line index
// li by processor p, and (for shared arrays) records the write-set entry.
// The overwhelmingly common case — a repeat access to the processor's last
// line in this array, needing no write-set record — is answered from the
// last-line slot with two compares; an MRU-way hit costs one tag probe more;
// everything else (LRU shuffle, miss, write record, reference model) drops
// to chargeSlow. Load and Store repeat both fast paths inline (the compiler
// will not inline charge into them) — keep the three copies in sync.
func (a *Array[T]) charge(p *sim.Proc, li uint32, write bool) {
	me := p.ID()
	c := a.caches[me]
	gl := a.baseLine + uint64(li)
	lr := &a.last[me]
	if lr.line == gl+1 && lr.gen == c.gen && !(write && a.shared) {
		p.CacheHits++
		p.Advance(a.cacheHitNS)
		return
	}
	base := c.setBase(gl)
	if (write && a.shared) || refModel || !c.mruHit(base, gl) {
		a.chargeSlow(p, c, base, gl, li, write)
		return
	}
	p.CacheHits++
	p.Advance(a.cacheHitNS)
	lr.line, lr.gen = gl+1, c.gen
}

func (a *Array[T]) chargeSlow(p *sim.Proc, c *cache, base, gl uint64, li uint32, write bool) {
	if refModel {
		a.chargeRef(p, li, write)
		return
	}
	me := p.ID()
	if c.mruHit(base, gl) || c.accessSlow(base, gl) {
		p.CacheHits++
		p.Advance(a.cacheHitNS)
	} else {
		a.noteInstall(me, li)
		sn := a.procNode[me]
		hn := a.procNode[a.pageHome[li>>a.pageOverLine]]
		if sn == hn {
			p.LocalMisses++
		} else {
			p.RemoteMisses++
		}
		p.Advance(a.nodeLat[int(sn)*a.nodes+int(hn)])
	}
	if write && a.shared {
		a.recordWrite(me, li)
	}
	// The access (hit or install) left gl in the MRU way; c.gen reflects any
	// shuffle accessSlow just did.
	a.last[me] = lastRef{gl + 1, c.gen}
}

// noteInstall widens processor me's install range after a miss installed
// array-local line li in its cache. Only shared arrays track installs (the
// merge is the sole consumer); the nil check keeps private arrays free.
func (a *Array[T]) noteInstall(me int, li uint32) {
	if a.inst == nil {
		return
	}
	r := &a.inst[me]
	if li < r.lo {
		r.lo = li
	}
	if li > r.hi {
		r.hi = li
	}
}

// recordWrite adds li to processor me's epoch write-set (once per line).
func (a *Array[T]) recordWrite(me int, li uint32) {
	bits := a.writeBits[me]
	if bits == nil {
		bits = make([]uint64, (a.lines()+63)/64)
		a.writeBits[me] = bits
	}
	w, b := li>>6, uint64(1)<<(li&63)
	if bits[w]&b == 0 {
		bits[w] |= b
		a.writeLines[me] = append(a.writeLines[me], li)
	}
}

// recordWriteRange is recordWrite for the contiguous lines [l0, l1],
// word-at-a-time over the dedup bitmap. Newly written lines are appended in
// ascending order — the same order the per-line path produces.
func (a *Array[T]) recordWriteRange(me int, l0, l1 uint32) {
	bits := a.writeBits[me]
	if bits == nil {
		bits = make([]uint64, (a.lines()+63)/64)
		a.writeBits[me] = bits
	}
	wl := a.writeLines[me]
	w0, w1 := l0>>6, l1>>6
	for w := w0; w <= w1; w++ {
		mask := ^uint64(0)
		if w == w0 {
			mask &= ^uint64(0) << (l0 & 63)
		}
		if w == w1 {
			mask &= ^uint64(0) >> (63 - l1&63)
		}
		newly := mask &^ bits[w]
		bits[w] |= mask
		for newly != 0 {
			wl = append(wl, w<<6|uint32(mbits.TrailingZeros64(newly)))
			newly &= newly - 1
		}
	}
	a.writeLines[me] = wl
}

func (a *Array[T]) lines() int {
	return int((a.elemSize*uint64(a.n) + uint64(a.sp.M.Cfg.LineBytes) - 1) / uint64(a.sp.M.Cfg.LineBytes))
}

// Load returns element i, charging the access to p. The charge fast paths
// are repeated here (not called) so the hot hit case costs no function call.
func (a *Array[T]) Load(p *sim.Proc, i int) T {
	me := p.ID()
	li := a.lineOf(i)
	c := a.caches[me]
	gl := a.baseLine + uint64(li)
	lr := &a.last[me]
	if lr.line == gl+1 && lr.gen == c.gen {
		p.CacheHits++
		p.Advance(a.cacheHitNS)
	} else if base := c.setBase(gl); refModel || !c.mruHit(base, gl) {
		a.chargeSlow(p, c, base, gl, li, false)
	} else {
		p.CacheHits++
		p.Advance(a.cacheHitNS)
		lr.line, lr.gen = gl+1, c.gen
	}
	pc := a.cache(me)
	if q := pc.hit(a, i); q != nil {
		return *q
	}
	return pc.get(a, i)
}

// Store writes element i, charging the access to p; fast paths as in Load
// (shared-array stores always drop to chargeSlow for the write record).
func (a *Array[T]) Store(p *sim.Proc, i int, v T) {
	me := p.ID()
	li := a.lineOf(i)
	c := a.caches[me]
	gl := a.baseLine + uint64(li)
	lr := &a.last[me]
	if !a.shared && lr.line == gl+1 && lr.gen == c.gen {
		p.CacheHits++
		p.Advance(a.cacheHitNS)
	} else if base := c.setBase(gl); a.shared || refModel || !c.mruHit(base, gl) {
		a.chargeSlow(p, c, base, gl, li, true)
	} else {
		p.CacheHits++
		p.Advance(a.cacheHitNS)
		lr.line, lr.gen = gl+1, c.gen
	}
	pc := a.cache(me)
	if q := pc.hit(a, i); q != nil {
		*q = v
		return
	}
	*pc.ref(a, i) = v
}

// Touch charges a read (or write) of element i without moving data.
func (a *Array[T]) Touch(p *sim.Proc, i int, write bool) {
	a.charge(p, a.lineOf(i), write)
}

// TouchRange charges a streaming access of elements [lo, hi) — one cache
// event per distinct line — without moving data.
//
// The bulk path probes each line once, accumulates the latency into a single
// Advance, and records the write-set word-at-a-time; because every access is
// in the same phase and counters are sums, the result is identical to
// charging line-by-line (the differential test in ref_test.go checks this
// against the reference path).
func (a *Array[T]) TouchRange(p *sim.Proc, lo, hi int, write bool) {
	if lo >= hi {
		return
	}
	l0, l1 := a.lineOf(lo), a.lineOf(hi-1)
	if refModel {
		for li := l0; li <= l1; li++ {
			a.chargeRef(p, li, write)
		}
		return
	}
	me := p.ID()
	c := a.caches[me]
	sn := a.procNode[me]
	var lat sim.Time
	var hits, local, remote uint64
	for li := l0; li <= l1; li++ {
		gl := a.baseLine + uint64(li)
		base := c.setBase(gl)
		if c.mruHit(base, gl) || c.accessSlow(base, gl) {
			hits++
			lat += a.cacheHitNS
			continue
		}
		a.noteInstall(me, li)
		hn := a.procNode[a.pageHome[li>>a.pageOverLine]]
		if sn == hn {
			local++
		} else {
			remote++
		}
		lat += a.nodeLat[int(sn)*a.nodes+int(hn)]
	}
	p.CacheHits += hits
	p.LocalMisses += local
	p.RemoteMisses += remote
	p.Advance(lat)
	if write && a.shared {
		a.recordWriteRange(me, l0, l1)
	}
	// l1 was the final probe, so it sits in the MRU way of its set.
	a.last[me] = lastRef{a.baseLine + uint64(l1) + 1, c.gen}
}

// Fill stores v into [lo, hi), charging one event per line.
func (a *Array[T]) Fill(p *sim.Proc, lo, hi int, v T) {
	a.TouchRange(p, lo, hi, true)
	for i := lo; i < hi; {
		pg := a.page(i)
		e := min(hi-i, pageElems-i&pageMask)
		s := pg[i&pageMask:][:e]
		for k := range s {
			s[k] = v
		}
		i += e
	}
}

// LineRange returns the global line-address range [lo, hi) covering elements
// [e0, e1); hi == lo when the element range is empty.
func (a *Array[T]) LineRange(e0, e1 int) (lo, hi uint64) {
	if e0 >= e1 {
		return 0, 0
	}
	lo = a.baseLine + uint64(a.lineOf(e0))
	hi = a.baseLine + uint64(a.lineOf(e1-1)) + 1
	return lo, hi
}

// --- Coherence merge (epochTracker) -----------------------------------------

// mergeEpoch applies the epoch's write-sets: every line written by some
// processor is invalidated in every other processor's cache.
//
// The loops run per writer, then per cache, then per line, so each target
// cache is filtered once per writer with its occupancy count and line-range
// bounds before any per-line probing. Invalidation outcomes are
// order-independent — invalidate(L) in cache q depends only on whether q
// still holds L, and each (line, cache) pair evicts at most once however many
// writers touched the line — so any probe order (including the reference
// path's line-major order in ref.go) yields identical cache state and evict
// counts.
func (a *Array[T]) mergeEpoch(caches []*cache, evicts []uint64) {
	if refModel {
		a.mergeEpochRef(caches, evicts)
		return
	}
	for w := range a.writeLines {
		lines := a.writeLines[w]
		if len(lines) == 0 {
			continue
		}
		// Precompute global addresses and signature bits once per writer; the
		// per-line signature check below is what keeps the merge affordable
		// at hundreds of caches — a probe only reaches the tag array when the
		// target cache has installed a line in that signature granule.
		gls := a.sp.mergeGls[:0]
		sigs := a.sp.mergeSigs[:0]
		lo, hi := lines[0], lines[0]
		var wsig uint64
		for _, li := range lines {
			if li < lo {
				lo = li
			}
			if li > hi {
				hi = li
			}
			gl := a.baseLine + uint64(li)
			sb := sigBit(gl)
			wsig |= sb
			gls = append(gls, gl)
			sigs = append(sigs, sb)
		}
		a.sp.mergeGls, a.sp.mergeSigs = gls, sigs
		glo, ghi := a.baseLine+uint64(lo), a.baseLine+uint64(hi)
		for q, c := range caches {
			// The per-array install range is the sharpest filter at large
			// processor counts (see inst); the cache-global occupancy and
			// signature checks still help when the range is wide.
			r := a.inst[q]
			if q == w || r.lo > hi || r.hi < lo ||
				c.live == 0 || ghi < c.minLine || glo > c.maxLine || c.sig&wsig == 0 {
				continue
			}
			n := uint64(0)
			csig := c.sig
			for k, li := range lines {
				if li < r.lo || li > r.hi || csig&sigs[k] == 0 {
					continue
				}
				if c.invalidate(gls[k]) {
					n++
				}
			}
			evicts[q] += n
		}
		bits := a.writeBits[w]
		for _, li := range lines {
			bits[li>>6] &^= uint64(1) << (li & 63)
		}
		a.writeLines[w] = lines[:0]
	}
}

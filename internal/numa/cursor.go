package numa

import (
	"unsafe"

	"o2k/internal/sim"
)

// Cursor is a bound accessor: Array, processor, and cache resolved once, with
// the per-access virtual latency accumulated locally and charged by a single
// Advance at Flush. It exists for the irregular inner loops that interleave
// several arrays per iteration (edge flux, vertex update, tree walk), where
// the index-batched helpers in batch.go do not fit: the loop keeps its shape
// and each Load/Store charges exactly like Array.Load/Store — same fast
// paths, same probes, same write-set records, same counters — except that the
// clock advances once per Flush instead of once per access. Within one phase
// the sums are identical.
//
// Rules: a Cursor is single-proc (use p's own cursor only from p's body) and
// must be Flushed before any synchronization, communication, or phase change
// — anything that reads p's clock — and before the loop's results are used to
// derive further costed work. Flush is idempotent; an unflushed cursor at a
// rendezvous would under-report the entry clock and break determinism.
//
// Under refModel every access degrades to chargeRef with an immediate
// Advance, so Flush becomes a no-op and differential traces stay aligned.
type Cursor[T any] struct {
	a    *Array[T]
	p    *sim.Proc
	c    *cache
	me   int
	lr   *lastRef // &a.last[me]
	lat  sim.Time
	hits uint64

	pc pageCache[T]

	// walk is the page-cache entry LoadMiss last read through: TryLoad and
	// TryProbe read through it alone, as a page-cache lookup would not
	// inline.
	walk tlbEntry[T]
}

// Cursor binds a to p. The returned value is cheap to create per loop; do not
// share it across procs.
func (a *Array[T]) Cursor(p *sim.Proc) Cursor[T] {
	me := p.ID()
	return Cursor[T]{a: a, p: p, c: a.caches[me], me: me, lr: &a.last[me]}
}

// Load reads element i through the cursor; identical charging to Array.Load
// with the Advance deferred to Flush.
func (cu *Cursor[T]) Load(i int) T {
	a := cu.a
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	lr := cu.lr
	if lr.line == gl+1 && lr.gen == cu.c.gen {
		cu.hits++
		cu.lat += a.cacheHitNS
		if q := cu.pc.hit(a, i); q != nil {
			return *q
		}
		return cu.pc.get(a, i)
	}
	return cu.loadSlow(i, gl)
}

// TryLoad is the inlinable fast path of Load: it returns (value, true) iff
// element i hits the per-proc MRU memo and lies on the page LoadMiss last
// read, charging exactly like Load's fast path. On false it charges nothing;
// the caller completes the access with LoadMiss(i), which charges a line
// memo hit identically (the memo line is MRU by construction). Load itself
// cannot inline (its slow-path call alone busts the inliner's budget), so
// the hottest inner loops — the tree walk — use this pair to keep the fast
// path call-free.
func (cu *Cursor[T]) TryLoad(i int) (v T, ok bool) {
	a := cu.a
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	lr := cu.lr
	if cu.walk.key == i>>pageLog+1 && lr.line == gl+1 && lr.gen == cu.c.gen {
		cu.hits++
		cu.lat += a.cacheHitNS
		v, ok = cu.walk.pg[i&pageMask], true
	}
	return v, ok
}

// TryProbe is the second inlinable stage of a cursor load: after TryLoad
// misses the memo, it probes the MRU way of the line's set directly — the
// overwhelmingly common outcome in replayed loops like the tree walk, where
// a line transition leaves the target line still MRU from the previous
// body's traversal. A hit charges and refreshes the memo exactly like
// loadSlow's probe branch. On false (not MRU, off TryLoad's page, or
// reference model) the caller completes the access with LoadMiss(i).
func (cu *Cursor[T]) TryProbe(i int) (T, bool) {
	var zero T
	if refModel || cu.walk.key != i>>pageLog+1 {
		return zero, false
	}
	a := cu.a
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	c := cu.c
	base := c.setBase(gl)
	if c.mruHit(base, gl) {
		cu.hits++
		cu.lat += a.cacheHitNS
		*cu.lr = lastRef{gl + 1, c.gen}
		return cu.walk.pg[i&pageMask], true
	}
	return zero, false
}

// TryTouch charges a load of element i iff it hits the per-proc MRU memo,
// without materializing the value — the replay loops (precomputed traversal
// traces) need only the charge. Returns whether it charged; on false it
// changes nothing and the caller completes with TouchMiss(i). Charging is
// identical to TryLoad's.
func (cu *Cursor[T]) TryTouch(i int) bool {
	a := cu.a
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	lr := cu.lr
	if lr.line == gl+1 && lr.gen == cu.c.gen {
		cu.hits++
		cu.lat += a.cacheHitNS
		return true
	}
	return false
}

// TouchMiss completes a charge whose TryTouch returned false; identical
// charging to LoadMiss without returning the element.
func (cu *Cursor[T]) TouchMiss(i int) {
	a := cu.a
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	if refModel {
		a.chargeRef(cu.p, a.lineOf(i), false)
		return
	}
	base := cu.c.setBase(gl)
	if cu.c.mruHit(base, gl) {
		cu.hits++
		cu.lat += a.cacheHitNS
		*cu.lr = lastRef{gl + 1, cu.c.gen}
	} else {
		cu.lat += a.chargeSlowAcc(cu.p, cu.c, base, gl, a.lineOf(i), false)
	}
}

// Arm is a per-access-stream line memo for LoadArm: it remembers the last
// line the stream verified present (in the MRU way of its set) and the cache
// generation at that moment. While the generation is unchanged no tag in the
// cache has moved — installs, LRU reorders, invalidation evictions, and
// flushes all bump it — so the line is provably still MRU and a repeat
// access charges as a hit without the set hash and tag probe. The per-proc
// memo in Array.last remembers only one line per array; loops that cycle
// through several lines of one array each iteration (the up/down/row arms of
// a 5-point stencil) thrash it, and a per-arm memo restores the hit rate.
//
// For the same reason an arm remembers its stream's host page: the rows a
// stencil's arms walk lie a fixed stride apart, which can map them all to
// one entry of the cursor's direct-mapped page cache.
type Arm struct {
	line uint64 // global line address + 1 (0 = never set)
	gen  uint64

	arr   unsafe.Pointer // the *Array[T] pg belongs to; nil = none
	pg    unsafe.Pointer // *hostPage[T], an installed page of arr
	pgKey int            // pg's page index
}

// LoadArm reads element i like Load, additionally consulting and maintaining
// arm as a second line memo. Charging is identical to Load: an arm hit is
// exactly the probe-hit outcome it shortcuts (same hit count, latency, and
// memo refresh), and the arm is bypassed under the reference model.
func (cu *Cursor[T]) LoadArm(arm *Arm, i int) T {
	a := cu.a
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	lr := cu.lr
	if lr.line == gl+1 && lr.gen == cu.c.gen {
		cu.hits++
		cu.lat += a.cacheHitNS
	} else if arm.line == gl+1 && arm.gen == cu.c.gen && !refModel {
		cu.hits++
		cu.lat += a.cacheHitNS
		*cu.lr = lastRef{gl + 1, cu.c.gen}
	} else {
		v := cu.loadSlow(i, gl)
		arm.line = gl + 1
		arm.gen = cu.c.gen
		cu.armTake(arm, i)
		return v
	}
	if arm.arr == unsafe.Pointer(a) && arm.pgKey == i>>pageLog && uint(i) < uint(a.n) {
		return (*hostPage[T])(arm.pg)[i&pageMask]
	}
	v := cu.pc.get(a, i)
	cu.armTake(arm, i)
	return v
}

// armTake hands arm the cursor's cached page for element i, if it has one.
func (cu *Cursor[T]) armTake(arm *Arm, i int) {
	if e := cu.pc.entry(i); e.key == i>>pageLog+1 {
		arm.arr, arm.pg, arm.pgKey = unsafe.Pointer(cu.a), unsafe.Pointer(e.pg), i>>pageLog
	}
}

// LoadMiss completes an access whose TryLoad returned false. TryLoad+LoadMiss
// charges identically to one Load (and TryLoad+TryProbe+LoadMiss likewise:
// a failed probe changes no state, so the re-probe inside charges the same).
func (cu *Cursor[T]) LoadMiss(i int) T {
	a := cu.a
	v := cu.loadSlow(i, a.baseLine+uint64(uint64(i)*a.elemSize>>a.lineShift))
	if e := cu.pc.entry(i); e.key == i>>pageLog+1 && i|pageMask < a.n {
		cu.walk = *e // a full page: TryLoad checks no bounds
	}
	return v
}

func (cu *Cursor[T]) loadSlow(i int, gl uint64) T {
	a := cu.a
	if refModel {
		a.chargeRef(cu.p, a.lineOf(i), false)
	} else if base := cu.c.setBase(gl); cu.c.mruHit(base, gl) {
		cu.hits++
		cu.lat += a.cacheHitNS
		*cu.lr = lastRef{gl + 1, cu.c.gen}
	} else {
		cu.lat += a.chargeSlowAcc(cu.p, cu.c, base, gl, a.lineOf(i), false)
	}
	if q := cu.pc.hit(a, i); q != nil {
		return *q
	}
	return cu.pc.get(a, i)
}

// Store writes element i through the cursor; identical charging to
// Array.Store with the Advance deferred to Flush.
func (cu *Cursor[T]) Store(i int, v T) {
	a := cu.a
	if !a.shared {
		gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
		lr := cu.lr
		if lr.line == gl+1 && lr.gen == cu.c.gen {
			cu.hits++
			cu.lat += a.cacheHitNS
			if q := cu.pc.hit(a, i); q != nil {
				*q = v
			} else {
				*cu.pc.ref(a, i) = v
			}
			return
		}
	}
	cu.storeSlow(i, v)
}

func (cu *Cursor[T]) storeSlow(i int, v T) {
	a := cu.a
	if refModel {
		a.chargeRef(cu.p, a.lineOf(i), true)
		*cu.pc.ref(a, i) = v
		return
	}
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	base := cu.c.setBase(gl)
	if !a.shared && cu.c.mruHit(base, gl) {
		cu.hits++
		cu.lat += a.cacheHitNS
		*cu.lr = lastRef{gl + 1, cu.c.gen}
	} else {
		cu.lat += a.chargeSlowAcc(cu.p, cu.c, base, gl, a.lineOf(i), true)
	}
	if q := cu.pc.hit(a, i); q != nil {
		*q = v
		return
	}
	*cu.pc.ref(a, i) = v
}

// Flush charges the accumulated hit count and latency to the processor. Call
// it before any rendezvous, message, or phase switch.
func (cu *Cursor[T]) Flush() {
	cu.p.CacheHits += cu.hits
	cu.p.Advance(cu.lat)
	cu.hits = 0
	cu.lat = 0
}

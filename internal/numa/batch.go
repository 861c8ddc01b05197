package numa

// Batched costed access (DESIGN.md §5.9). The entry points here charge a
// whole sequence of element accesses with one Advance instead of one per
// element. Each helper performs its accesses in exactly the order the
// equivalent element-at-a-time loop would — same cache probes, same LRU
// movement, same write-set records — so the final cache state, counters, and
// virtual time are identical to the unbatched loop (within one phase, latency
// and counter sums are order-independent). The differential test in
// ref_test.go proves every helper against the division-based reference model.
//
// Under refModel every helper degrades to a chargeRef-per-element loop in the
// same access order, exactly like Load/Store/TouchRange.

import (
	"fmt"

	"o2k/internal/sim"
)

// Num constrains the element types the accumulate helpers (AddIdx, AddGather)
// can combine with +.
type Num interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// chargeSlowAcc is chargeSlow for the batched paths: identical probe, counter,
// and write-set behaviour, but the latency is returned for the caller to
// accumulate into a single Advance instead of being charged immediately.
func (a *Array[T]) chargeSlowAcc(p *sim.Proc, c *cache, base, gl uint64, li uint32, write bool) sim.Time {
	me := p.ID()
	var lat sim.Time
	if c.mruHit(base, gl) || c.accessSlow(base, gl) {
		p.CacheHits++
		lat = a.cacheHitNS
	} else {
		a.noteInstall(me, li)
		sn := a.procNode[me]
		hn := a.procNode[a.pageHome[li>>a.pageOverLine]]
		if sn == hn {
			p.LocalMisses++
		} else {
			p.RemoteMisses++
		}
		lat = a.nodeLat[int(sn)*a.nodes+int(hn)]
	}
	if write && a.shared {
		a.recordWrite(me, li)
	}
	a.last[me] = lastRef{gl + 1, c.gen}
	return lat
}

// chargeAcc performs one costed access for the multi-array batch helpers,
// accumulating latency into *lat. It repeats the Load/Store fast paths (see
// the charge comment in array.go: the copies must stay in sync).
func (a *Array[T]) chargeAcc(p *sim.Proc, c *cache, li uint32, write bool, lat *sim.Time) {
	me := p.ID()
	gl := a.baseLine + uint64(li)
	lr := &a.last[me]
	if lr.line == gl+1 && lr.gen == c.gen && !(write && a.shared) {
		p.CacheHits++
		*lat += a.cacheHitNS
		return
	}
	base := c.setBase(gl)
	if (write && a.shared) || !c.mruHit(base, gl) {
		*lat += a.chargeSlowAcc(p, c, base, gl, li, write)
		return
	}
	p.CacheHits++
	*lat += a.cacheHitNS
	lr.line, lr.gen = gl+1, c.gen
}

// GatherIdx copies element idx[k] into out[k] for every k, charging each read
// like Load but with one Advance for the whole gather. out must hold at least
// len(idx) elements.
func (a *Array[T]) GatherIdx(p *sim.Proc, idx []int32, out []T) {
	if len(idx) == 0 {
		return
	}
	out = out[:len(idx)]
	if refModel {
		for k, ix := range idx {
			a.chargeRef(p, a.lineOf(int(ix)), false)
			out[k] = a.at(int(ix))
		}
		return
	}
	me := p.ID()
	c := a.caches[me]
	lr := &a.last[me]
	pc := a.cache(me)
	var lat sim.Time
	var hits uint64
	for k, ix := range idx {
		i := int(ix)
		li := a.lineOf(i)
		gl := a.baseLine + uint64(li)
		if lr.line == gl+1 && lr.gen == c.gen {
			hits++
			lat += a.cacheHitNS
		} else if base := c.setBase(gl); c.mruHit(base, gl) {
			hits++
			lat += a.cacheHitNS
			lr.line, lr.gen = gl+1, c.gen
		} else {
			lat += a.chargeSlowAcc(p, c, base, gl, li, false)
		}
		out[k] = pc.get(a, i)
	}
	p.CacheHits += hits
	p.Advance(lat)
}

// ScatterIdx stores vals[k] into element idx[k] for every k, charging each
// write like Store but with one Advance for the whole scatter.
func (a *Array[T]) ScatterIdx(p *sim.Proc, idx []int32, vals []T) {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("numa: ScatterIdx index/value length mismatch (%d vs %d)", len(idx), len(vals)))
	}
	if len(idx) == 0 {
		return
	}
	if refModel {
		for k, ix := range idx {
			a.chargeRef(p, a.lineOf(int(ix)), true)
			*a.ref(int(ix)) = vals[k]
		}
		return
	}
	me := p.ID()
	c := a.caches[me]
	lr := &a.last[me]
	pc := a.cache(me)
	var lat sim.Time
	var hits uint64
	for k, ix := range idx {
		i := int(ix)
		li := a.lineOf(i)
		gl := a.baseLine + uint64(li)
		if !a.shared && lr.line == gl+1 && lr.gen == c.gen {
			hits++
			lat += a.cacheHitNS
		} else if base := c.setBase(gl); !a.shared && c.mruHit(base, gl) {
			hits++
			lat += a.cacheHitNS
			lr.line, lr.gen = gl+1, c.gen
		} else {
			lat += a.chargeSlowAcc(p, c, base, gl, li, true)
		}
		*pc.ref(a, i) = vals[k]
	}
	p.CacheHits += hits
	p.Advance(lat)
}

// FillIdx stores v into every element named by idx, charging each write like
// Store with one Advance for the batch — the indexed sibling of Fill.
func (a *Array[T]) FillIdx(p *sim.Proc, idx []int32, v T) {
	if len(idx) == 0 {
		return
	}
	if refModel {
		for _, ix := range idx {
			a.chargeRef(p, a.lineOf(int(ix)), true)
			*a.ref(int(ix)) = v
		}
		return
	}
	me := p.ID()
	c := a.caches[me]
	lr := &a.last[me]
	pc := a.cache(me)
	var lat sim.Time
	var hits uint64
	for _, ix := range idx {
		i := int(ix)
		li := a.lineOf(i)
		gl := a.baseLine + uint64(li)
		if !a.shared && lr.line == gl+1 && lr.gen == c.gen {
			hits++
			lat += a.cacheHitNS
		} else if base := c.setBase(gl); !a.shared && c.mruHit(base, gl) {
			hits++
			lat += a.cacheHitNS
			lr.line, lr.gen = gl+1, c.gen
		} else {
			lat += a.chargeSlowAcc(p, c, base, gl, li, true)
		}
		*pc.ref(a, i) = v
	}
	p.CacheHits += hits
	p.Advance(lat)
}

// AddIdx adds vals[k] to element idx[k] for every k. Per element it charges a
// read then a write of the same element — exactly the
// a.Store(p, i, a.Load(p, i)+v) sequence it replaces.
func AddIdx[T Num](p *sim.Proc, a *Array[T], idx []int32, vals []T) {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("numa: AddIdx index/value length mismatch (%d vs %d)", len(idx), len(vals)))
	}
	if refModel {
		for k, ix := range idx {
			li := a.lineOf(int(ix))
			a.chargeRef(p, li, false)
			a.chargeRef(p, li, true)
			*a.ref(int(ix)) += vals[k]
		}
		return
	}
	me := p.ID()
	c := a.caches[me]
	pc := a.cache(me)
	var lat sim.Time
	for k, ix := range idx {
		li := a.lineOf(int(ix))
		a.chargeAcc(p, c, li, false, &lat)
		a.chargeAcc(p, c, li, true, &lat)
		*pc.ref(a, int(ix)) += vals[k]
	}
	p.Advance(lat)
}

// AddGather adds src[srcOff+k] to dst element idx[k] for every k. Both arrays
// must belong to the same Space. Per element the access order is dst read,
// src read, dst write — exactly the
// dst.Store(p, i, dst.Load(p, i)+src.Load(p, srcOff+k)) sequence it replaces.
func AddGather[T Num](p *sim.Proc, dst *Array[T], idx []int32, src *Array[T], srcOff int) {
	if dst.sp != src.sp {
		panic("numa: AddGather arrays from different spaces")
	}
	if refModel {
		for k, ix := range idx {
			li := dst.lineOf(int(ix))
			dst.chargeRef(p, li, false)
			src.chargeRef(p, src.lineOf(srcOff+k), false)
			dst.chargeRef(p, li, true)
			*dst.ref(int(ix)) += src.at(srcOff + k)
		}
		return
	}
	me := p.ID()
	c := dst.caches[me]
	dpc, spc := dst.cache(me), src.cache(me)
	var lat sim.Time
	for k, ix := range idx {
		li := dst.lineOf(int(ix))
		dst.chargeAcc(p, c, li, false, &lat)
		src.chargeAcc(p, c, src.lineOf(srcOff+k), false, &lat)
		dst.chargeAcc(p, c, li, true, &lat)
		*dpc.ref(dst, int(ix)) += spc.get(src, srcOff+k)
	}
	p.Advance(lat)
}

// PackIdx copies src element idx[k] into dst element dstOff+k for every k
// (both arrays in the same Space). Per element: src read, then dst write —
// the dst.Store(p, dstOff+k, src.Load(p, i)) staging-buffer idiom.
func PackIdx[T any](p *sim.Proc, dst *Array[T], dstOff int, src *Array[T], idx []int32) {
	if dst.sp != src.sp {
		panic("numa: PackIdx arrays from different spaces")
	}
	if refModel {
		for k, ix := range idx {
			src.chargeRef(p, src.lineOf(int(ix)), false)
			dst.chargeRef(p, dst.lineOf(dstOff+k), true)
			*dst.ref(dstOff + k) = src.at(int(ix))
		}
		return
	}
	me := p.ID()
	c := dst.caches[me]
	dpc, spc := dst.cache(me), src.cache(me)
	var lat sim.Time
	for k, ix := range idx {
		src.chargeAcc(p, c, src.lineOf(int(ix)), false, &lat)
		dst.chargeAcc(p, c, dst.lineOf(dstOff+k), true, &lat)
		*dpc.ref(dst, dstOff+k) = spc.get(src, int(ix))
	}
	p.Advance(lat)
}

// GatherFields packs, for every index idx[k], one element from each of srcs
// (field-major within the element: srcs[0][i], srcs[1][i], ...) into
// out[len(srcs)*k+f] — the AoS migration-record gather all three adaptive-mesh
// models perform, batched. All arrays must share one Space.
func GatherFields[T any](p *sim.Proc, srcs []*Array[T], idx []int32, out []T) {
	nf := len(srcs)
	if len(out) < nf*len(idx) {
		panic("numa: GatherFields output too short")
	}
	if refModel {
		for k, ix := range idx {
			for f, a := range srcs {
				a.chargeRef(p, a.lineOf(int(ix)), false)
				out[nf*k+f] = a.at(int(ix))
			}
		}
		return
	}
	me := p.ID()
	c := srcs[0].caches[me]
	var lat sim.Time
	for k, ix := range idx {
		i := int(ix)
		for f, a := range srcs {
			a.chargeAcc(p, c, a.lineOf(i), false, &lat)
			out[nf*k+f] = a.cache(me).get(a, i)
		}
	}
	p.Advance(lat)
}

// ScatterFields is the receive side of GatherFields: vals[len(dsts)*k+f] is
// stored into dsts[f] element idx[k], field-major per element.
func ScatterFields[T any](p *sim.Proc, dsts []*Array[T], idx []int32, vals []T) {
	nf := len(dsts)
	if len(vals) < nf*len(idx) {
		panic("numa: ScatterFields values too short")
	}
	if refModel {
		for k, ix := range idx {
			for f, a := range dsts {
				a.chargeRef(p, a.lineOf(int(ix)), true)
				*a.ref(int(ix)) = vals[nf*k+f]
			}
		}
		return
	}
	me := p.ID()
	c := dsts[0].caches[me]
	var lat sim.Time
	for k, ix := range idx {
		i := int(ix)
		for f, a := range dsts {
			a.chargeAcc(p, c, a.lineOf(i), true, &lat)
			*a.cache(me).ref(a, i) = vals[nf*k+f]
		}
	}
	p.Advance(lat)
}

// CopyFields copies element idx[k] of srcs[f] into element idx[k] of dsts[f]
// for every k, field-major per element (src read then dst write per field) —
// the carry-forward loop that re-seeds kept vertices from the previous cycle's
// arrays. len(dsts) must equal len(srcs); all arrays share one Space.
func CopyFields[T any](p *sim.Proc, dsts, srcs []*Array[T], idx []int32) {
	if len(dsts) != len(srcs) {
		panic(fmt.Sprintf("numa: CopyFields field count mismatch (%d vs %d)", len(dsts), len(srcs)))
	}
	if refModel {
		for _, ix := range idx {
			for f, s := range srcs {
				d := dsts[f]
				s.chargeRef(p, s.lineOf(int(ix)), false)
				d.chargeRef(p, d.lineOf(int(ix)), true)
				*d.ref(int(ix)) = s.at(int(ix))
			}
		}
		return
	}
	me := p.ID()
	c := dsts[0].caches[me]
	var lat sim.Time
	for _, ix := range idx {
		i := int(ix)
		for f, s := range srcs {
			d := dsts[f]
			s.chargeAcc(p, c, s.lineOf(i), false, &lat)
			d.chargeAcc(p, c, d.lineOf(i), true, &lat)
			*d.cache(me).ref(d, i) = s.cache(me).get(s, i)
		}
	}
	p.Advance(lat)
}

// UnpackFields is ScatterFields reading from a costed staging array instead of
// a host slice: for every k, element src[srcOff+len(dsts)*k+f] is read then
// stored into dsts[f] element idx[k] — the src read/dst write interleaving of
// the SHMEM migration unpack loop.
func UnpackFields[T any](p *sim.Proc, src *Array[T], srcOff int, dsts []*Array[T], idx []int32) {
	nf := len(dsts)
	if refModel {
		for k, ix := range idx {
			for f, a := range dsts {
				src.chargeRef(p, src.lineOf(srcOff+nf*k+f), false)
				a.chargeRef(p, a.lineOf(int(ix)), true)
				*a.ref(int(ix)) = src.at(srcOff + nf*k + f)
			}
		}
		return
	}
	me := p.ID()
	c := src.caches[me]
	spc := src.cache(me)
	var lat sim.Time
	for k, ix := range idx {
		i := int(ix)
		for f, a := range dsts {
			src.chargeAcc(p, c, src.lineOf(srcOff+nf*k+f), false, &lat)
			a.chargeAcc(p, c, a.lineOf(i), true, &lat)
			*a.cache(me).ref(a, i) = spc.get(src, srcOff+nf*k+f)
		}
	}
	p.Advance(lat)
}

// Store3At writes elements i, i+1, i+2 in order with a single Advance.
func (a *Array[T]) Store3At(p *sim.Proc, i int, v0, v1, v2 T) {
	if refModel {
		a.chargeRef(p, a.lineOf(i), true)
		a.chargeRef(p, a.lineOf(i+1), true)
		a.chargeRef(p, a.lineOf(i+2), true)
		*a.ref(i), *a.ref(i + 1), *a.ref(i + 2) = v0, v1, v2
		return
	}
	c := a.caches[p.ID()]
	var lat sim.Time
	a.chargeAcc(p, c, a.lineOf(i), true, &lat)
	a.chargeAcc(p, c, a.lineOf(i+1), true, &lat)
	a.chargeAcc(p, c, a.lineOf(i+2), true, &lat)
	p.Advance(lat)
	pc := a.cache(p.ID())
	*pc.ref(a, i), *pc.ref(a, i+1), *pc.ref(a, i+2) = v0, v1, v2
}

// StoreRange copies vals into elements [lo, lo+len(vals)), charging every
// element like Store with one Advance. Consecutive elements of one line after
// the first are repeat accesses of the MRU way (the line was just probed), so
// the span path probes each line once and adds the remaining accesses
// arithmetically — the TouchRange machinery applied to per-element semantics.
func (a *Array[T]) StoreRange(p *sim.Proc, lo int, vals []T) {
	a.storeCharge(p, lo, lo+len(vals))
	a.PokeRange(lo, vals)
}

// storeCharge charges one write access per element of [lo, hi) — unlike
// TouchRange's one per line — by probing each line once and accounting the
// remaining accesses of that line as MRU repeats (a probe leaves its line in
// the MRU way, so every subsequent access of the same line is a hit with no
// LRU movement; charging them arithmetically is exact, not an
// approximation).
func (a *Array[T]) storeCharge(p *sim.Proc, lo, hi int) {
	if lo >= hi {
		return
	}
	if refModel {
		for i := lo; i < hi; i++ {
			a.chargeRef(p, a.lineOf(i), true)
		}
		return
	}
	me := p.ID()
	c := a.caches[me]
	lb := uint64(a.sp.M.Cfg.LineBytes)
	if a.elemSize > lb {
		// Oversized elements: per-element charging touches only each element's
		// first line, so the per-line walk below would probe lines the
		// unbatched loop never does. Charge element-at-a-time instead.
		var lat sim.Time
		for i := lo; i < hi; i++ {
			a.chargeAcc(p, c, a.lineOf(i), true, &lat)
		}
		p.Advance(lat)
		return
	}
	sn := a.procNode[me]
	l0, l1 := a.lineOf(lo), a.lineOf(hi-1)
	var lat sim.Time
	var hits, local, remote uint64
	for li := l0; li <= l1; li++ {
		// Elements of this line inside [lo, hi): the next line's first element
		// is ceil((li+1)*lineBytes / elemSize).
		n := uint64(hi - lo)
		if li < l1 {
			first := (uint64(li+1)*lb + a.elemSize - 1) / a.elemSize
			n = first - uint64(lo)
		}
		gl := a.baseLine + uint64(li)
		base := c.setBase(gl)
		if c.mruHit(base, gl) || c.accessSlow(base, gl) {
			hits++
			lat += a.cacheHitNS
		} else {
			a.noteInstall(me, li)
			hn := a.procNode[a.pageHome[li>>a.pageOverLine]]
			if sn == hn {
				local++
			} else {
				remote++
			}
			lat += a.nodeLat[int(sn)*a.nodes+int(hn)]
		}
		if n > 1 {
			hits += n - 1
			lat += sim.Time(n-1) * a.cacheHitNS
		}
		lo += int(n)
	}
	p.CacheHits += hits
	p.LocalMisses += local
	p.RemoteMisses += remote
	p.Advance(lat)
	if a.shared {
		a.recordWriteRange(me, l0, l1)
	}
	a.last[me] = lastRef{a.baseLine + uint64(l1) + 1, c.gen}
}

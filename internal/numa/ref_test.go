package numa

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"o2k/internal/sim"
)

// procState is everything the cost model is allowed to change on a processor.
type procState struct {
	Clock    sim.Time
	Phases   [sim.NumPhases]sim.Time
	Counters sim.Counters
}

// traceResult snapshots the observable outcome of one trace execution.
type traceResult struct {
	Procs    []procState
	Evicts   []uint64
	PenLog   []sim.Time // concatenated MergeEpoch penalties, in call order
	Checksum float64    // data read through the arrays (model-independent)
}

// intSource supplies a trace's choices. *rand.Rand is one; byteSource (the
// fuzz target's) is the other.
type intSource interface{ Intn(n int) int }

// byteSource draws choices from fuzz input, two bytes at a time, and zeros
// once the input runs out.
type byteSource struct{ b []byte }

func (s *byteSource) Intn(n int) int {
	v := 0
	for k := 0; k < 2 && len(s.b) > 0; k++ {
		v = v<<8 | int(s.b[0])
		s.b = s.b[1:]
	}
	return v % n
}

// shadowed pairs an array with a plain dense slice that every operation of
// the trace updates the same way, so the paged host backing can be checked
// element by element against the obvious representation.
type shadowed[T comparable] struct {
	a    *Array[T]
	want []T
	buf  []T
}

func shadow[T comparable](a *Array[T]) *shadowed[T] {
	return &shadowed[T]{a: a, want: make([]T, a.Len()), buf: make([]T, a.Len())}
}

// check compares every element through the uncosted copy helper, and with
// each also through the per-element accessor.
func (s *shadowed[T]) check(t testing.TB, step int, name string, each bool) {
	t.Helper()
	s.a.PeekRange(s.buf, 0)
	for i, w := range s.want {
		if s.buf[i] != w || each && s.a.Peek(i) != w {
			t.Fatalf("step %d: %s[%d] = %v (PeekRange %v), want %v", step, name, i, s.a.Peek(i), s.buf[i], w)
		}
	}
}

// runTrace executes a seeded random access trace against a fresh Space with
// the given cost-model selection and returns the observable state. The trace
// is generated from the seed alone, so two calls with the same seed perform
// the identical operation sequence.
func runTrace(t testing.TB, seed int64, useRef bool) traceResult {
	t.Helper()
	return runTraceFrom(t, rand.New(rand.NewSource(seed)), 4000, useRef)
}

// runTraceFrom executes steps operations chosen by rng. Every operation also
// updates the dense shadow of each array it writes, and the arrays it
// touched are compared against their shadows after it.
func runTraceFrom(t testing.TB, rng intSource, steps int, useRef bool) traceResult {
	t.Helper()
	refModel = useRef
	defer func() { refModel = false }()

	const procs = 8
	sp, _ := space(procs)
	g := sim.NewGroup(procs)

	shA := shadow(NewShared[float64](sp, 4096))
	shA.a.PlaceInterleave()
	shB := shadow(NewShared[int32](sp, 1000)) // odd length: partial last line and page
	shB.a.PlaceBlock()
	var priv []*shadowed[float64]
	for i := 0; i < procs; i++ {
		priv = append(priv, shadow(NewPrivate[float64](sp, i, 512)))
	}
	// Replay quartet: body coordinates/masses plus a cell store, shaped like
	// the tree-walk arrays ReplayLoads was built for.
	shX := shadow(NewShared[float64](sp, 2048))
	shX.a.PlaceInterleave()
	shY := shadow(NewShared[float64](sp, 2048))
	shY.a.PlaceBlock()
	shM := shadow(NewShared[float64](sp, 2048))
	shM.a.PlaceInterleave()
	shC := shadow(NewShared[float64](sp, 3*256))
	shC.a.PlaceBlock()
	// One array spanning several page directories, written sparsely.
	shD := shadow(NewPrivate[float64](sp, 0, 3<<dirShift+77))

	phases := []sim.Phase{sim.PhaseCompute, sim.PhaseMark, sim.PhaseRemap}
	res := traceResult{}
	sum := 0.0

	// read checks a value a costed access returned against the shadow.
	read := func(step int, name string, got, want float64) {
		t.Helper()
		if got != want {
			t.Fatalf("step %d: %s read %v, want %v", step, name, got, want)
		}
		sum += got
	}
	idxs := func(n, k int) []int32 {
		idx := make([]int32, k)
		for j := range idx {
			idx[j] = int32(rng.Intn(n))
		}
		return idx
	}
	vals := func(k int) []float64 {
		v := make([]float64, k)
		for j := range v {
			v[j] = float64(rng.Intn(1000))
		}
		return v
	}

	for step := 0; step < steps; step++ {
		p := g.Proc(rng.Intn(procs))
		if rng.Intn(16) == 0 {
			p.SetPhase(phases[rng.Intn(len(phases))])
		}
		me := p.ID()
		var touched []*shadowed[float64]
		switch rng.Intn(24) {
		case 0:
			i := rng.Intn(shA.a.Len())
			read(step, "shA", shA.a.Load(p, i), shA.want[i])
		case 1:
			i := rng.Intn(shA.a.Len())
			shA.a.Store(p, i, float64(step))
			shA.want[i] = float64(step)
			touched = append(touched, shA)
		case 2:
			shB.a.Touch(p, rng.Intn(shB.a.Len()), rng.Intn(2) == 0)
		case 3:
			lo := rng.Intn(shA.a.Len())
			hi := lo + rng.Intn(shA.a.Len()-lo)
			shA.a.TouchRange(p, lo, hi, rng.Intn(2) == 0)
		case 4:
			lo := rng.Intn(shB.a.Len())
			hi := lo + rng.Intn(shB.a.Len()-lo)
			shB.a.Fill(p, lo, hi, int32(step))
			for i := lo; i < hi; i++ {
				shB.want[i] = int32(step)
			}
			shB.check(t, step, "shB", false)
		case 5:
			a := priv[me]
			i := rng.Intn(a.a.Len())
			if rng.Intn(2) == 0 {
				a.a.Store(p, i, float64(step))
				a.want[i] = float64(step)
				touched = append(touched, a)
			} else {
				read(step, "priv", a.a.Load(p, i), a.want[i])
			}
		case 6:
			// Cursor load chains, staged randomly through the inlinable
			// TryLoad / TryProbe fast paths and the LoadMiss completion.
			cu := shA.a.Cursor(p)
			n := 1 + rng.Intn(32)
			for k := 0; k < n; k++ {
				i := rng.Intn(shA.a.Len())
				var v float64
				switch rng.Intn(3) {
				case 0:
					v = cu.Load(i)
				case 1:
					var ok bool
					if v, ok = cu.TryLoad(i); !ok {
						v = cu.LoadMiss(i)
					}
				default:
					var ok bool
					if v, ok = cu.TryLoad(i); !ok {
						if v, ok = cu.TryProbe(i); !ok {
							v = cu.LoadMiss(i)
						}
					}
				}
				read(step, "shA cursor", v, shA.want[i])
			}
			cu.Flush()
		case 7:
			// Charge-only touch chain (the replay building block).
			cb := shB.a.Cursor(p)
			n := 1 + rng.Intn(32)
			for k := 0; k < n; k++ {
				if i := rng.Intn(shB.a.Len()); !cb.TryTouch(i) {
					cb.TouchMiss(i)
				}
			}
			cb.Flush()
		case 8:
			// Stencil-shaped arm walk: two streams cycling distinct lines.
			ca := shA.a.Cursor(p)
			var up, row Arm
			base := rng.Intn(shA.a.Len() - 66)
			for j := 0; j < 32; j++ {
				read(step, "shA up", ca.LoadArm(&up, base+j), shA.want[base+j])
				read(step, "shA row", ca.LoadArm(&row, base+32+j), shA.want[base+32+j])
				read(step, "shA row+1", ca.LoadArm(&row, base+32+j+1), shA.want[base+32+j+1])
			}
			ca.Flush()
		case 9:
			// Batched trace replay over the quartet, with an occasional store
			// beforehand so the replay meets freshly written lines.
			if rng.Intn(2) == 0 {
				arr := [...]*shadowed[float64]{shX, shY, shM, shC}[rng.Intn(4)]
				i := rng.Intn(arr.a.Len())
				arr.a.Store(p, i, float64(step))
				arr.want[i] = float64(step)
				touched = append(touched, arr)
			}
			var tr []int32
			n := 1 + rng.Intn(40)
			for k := 0; k < n; k++ {
				if rng.Intn(3) == 0 {
					tr = append(tr, int32(^rng.Intn(256)))
				} else {
					tr = append(tr, int32(rng.Intn(shX.a.Len())))
				}
			}
			cx, cy, cm, cc := shX.a.Cursor(p), shY.a.Cursor(p), shM.a.Cursor(p), shC.a.Cursor(p)
			ReplayLoads(tr, &cx, &cy, &cm, &cc)
			cx.Flush()
			cy.Flush()
			cm.Flush()
			cc.Flush()
		case 10:
			idx := idxs(shA.a.Len(), 1+rng.Intn(24))
			out := make([]float64, len(idx))
			shA.a.GatherIdx(p, idx, out)
			for k, ix := range idx {
				read(step, "GatherIdx", out[k], shA.want[ix])
			}
		case 11:
			a := priv[me]
			idx := idxs(a.a.Len(), 1+rng.Intn(24))
			v := vals(len(idx))
			a.a.ScatterIdx(p, idx, v)
			for k, ix := range idx {
				a.want[ix] = v[k]
			}
			touched = append(touched, a)
		case 12:
			idx := idxs(shB.a.Len(), 1+rng.Intn(24))
			shB.a.FillIdx(p, idx, int32(step))
			for _, ix := range idx {
				shB.want[ix] = int32(step)
			}
			shB.check(t, step, "shB", false)
		case 13:
			idx := idxs(shA.a.Len(), 1+rng.Intn(24))
			v := vals(len(idx))
			AddIdx(p, shA.a, idx, v)
			for k, ix := range idx {
				shA.want[ix] += v[k]
			}
			touched = append(touched, shA)
		case 14:
			idx := idxs(shA.a.Len(), 1+rng.Intn(24))
			off := rng.Intn(shX.a.Len() - len(idx))
			AddGather(p, shA.a, idx, shX.a, off)
			for k, ix := range idx {
				shA.want[ix] += shX.want[off+k]
			}
			touched = append(touched, shA, shX)
		case 15:
			a := priv[me]
			idx := idxs(shA.a.Len(), 1+rng.Intn(24))
			off := rng.Intn(a.a.Len() - len(idx))
			PackIdx(p, a.a, off, shA.a, idx)
			for k, ix := range idx {
				a.want[off+k] = shA.want[ix]
			}
			touched = append(touched, a)
		case 16:
			srcs := []*shadowed[float64]{shX, shY, shM}
			idx := idxs(shX.a.Len(), 1+rng.Intn(16))
			out := make([]float64, len(srcs)*len(idx))
			GatherFields(p, []*Array[float64]{shX.a, shY.a, shM.a}, idx, out)
			for k, ix := range idx {
				for f, s := range srcs {
					read(step, "GatherFields", out[len(srcs)*k+f], s.want[ix])
				}
			}
		case 17:
			dsts := []*shadowed[float64]{shX, shY, shM}
			idx := idxs(shX.a.Len(), 1+rng.Intn(16))
			v := vals(len(dsts) * len(idx))
			ScatterFields(p, []*Array[float64]{shX.a, shY.a, shM.a}, idx, v)
			for k, ix := range idx {
				for f, d := range dsts {
					d.want[ix] = v[len(dsts)*k+f]
				}
			}
			touched = append(touched, dsts...)
		case 18:
			idx := idxs(shX.a.Len(), 1+rng.Intn(16))
			CopyFields(p, []*Array[float64]{shX.a, shY.a}, []*Array[float64]{shM.a, shX.a}, idx)
			for _, ix := range idx {
				shX.want[ix] = shM.want[ix]
				shY.want[ix] = shX.want[ix]
			}
			touched = append(touched, shX, shY)
		case 19:
			a := priv[me]
			idx := idxs(shY.a.Len(), 1+rng.Intn(16))
			off := rng.Intn(a.a.Len() - 2*len(idx))
			UnpackFields(p, a.a, off, []*Array[float64]{shY.a, shM.a}, idx)
			for k, ix := range idx {
				shY.want[ix] = a.want[off+2*k]
				shM.want[ix] = a.want[off+2*k+1]
			}
			touched = append(touched, shY, shM)
		case 20:
			i := rng.Intn(shA.a.Len() - 2)
			shA.a.Store3At(p, i, float64(step), float64(step+1), float64(step+2))
			shA.want[i], shA.want[i+1], shA.want[i+2] = float64(step), float64(step+1), float64(step+2)
			touched = append(touched, shA)
		case 21:
			dst := [...]*shadowed[float64]{shA, priv[me]}[rng.Intn(2)]
			v := vals(1 + rng.Intn(300))
			lo := rng.Intn(dst.a.Len() - len(v) + 1)
			dst.a.StoreRange(p, lo, v)
			copy(dst.want[lo:], v)
			touched = append(touched, dst)
		case 22:
			// Cursor stores and loads mixed, as in the mesh's edge loops.
			a := [...]*shadowed[float64]{shA, priv[me]}[rng.Intn(2)]
			cu := a.a.Cursor(p)
			n := 1 + rng.Intn(32)
			for k := 0; k < n; k++ {
				i := rng.Intn(a.a.Len())
				if rng.Intn(2) == 0 {
					cu.Store(i, float64(step*64+k))
					a.want[i] = float64(step*64 + k)
				} else {
					read(step, "cursor mix", cu.Load(i), a.want[i])
				}
			}
			cu.Flush()
			touched = append(touched, a)
		case 23:
			// Sparse stores and loads across page directories, through the
			// array and through a cursor; most of shD stays unwritten.
			i := rng.Intn(shD.a.Len())
			if me == 0 && rng.Intn(2) == 0 {
				shD.a.Store(p, i, float64(step))
				shD.want[i] = float64(step)
				touched = append(touched, shD)
			} else if me == 0 {
				cu := shD.a.Cursor(p)
				j := rng.Intn(shD.a.Len())
				read(step, "shD cursor", cu.Load(i), shD.want[i])
				read(step, "shD cursor", cu.Load(j), shD.want[j])
				cu.Flush()
			}
		}
		for _, s := range touched {
			s.check(t, step, fmt.Sprintf("array@%d", s.a.base), false)
		}
		// Periodic synchronization point: resolve coherence and charge the
		// penalties exactly as a barrier would.
		if step%257 == 256 {
			pen := sp.MergeEpoch()
			for i, d := range pen {
				g.Proc(i).Advance(d)
				res.PenLog = append(res.PenLog, d)
			}
		}
	}
	for _, s := range append([]*shadowed[float64]{shA, shX, shY, shM, shC, shD}, priv...) {
		s.check(t, steps, fmt.Sprintf("array@%d", s.a.base), true)
	}
	shB.check(t, steps, "shB", true)

	for i := 0; i < procs; i++ {
		p := g.Proc(i)
		res.Procs = append(res.Procs, procState{
			Clock:    p.Now(),
			Phases:   p.PhaseTimes(),
			Counters: p.Counters,
		})
	}
	res.Evicts = sp.CohEvictions()
	res.Checksum = sum
	return res
}

// TestFastPathMatchesReference is the differential test for the optimized
// cost model (DESIGN.md §5.4): the shift/table fast paths in array.go, the
// cursor chains (TryLoad/TryProbe/LoadMiss, TryTouch/TouchMiss, LoadArm),
// the batch helpers of batch.go, the batched trace replay (ReplayLoads), and
// the filtered, inverted coherence merge must be observationally identical
// to the straightforward reference implementations in ref.go — same virtual
// clocks, same per-phase attribution, same counters, same coherence
// evictions, same merge penalties — on randomized traces. Both runs also
// check every array against a dense shadow after every operation.
func TestFastPathMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 42, 20260805} {
		fast := runTrace(t, seed, false)
		ref := runTrace(t, seed, true)
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("seed %d: fast path diverged from reference\nfast: %+v\nref:  %+v",
				seed, fast, ref)
		}
	}
}

// FuzzTrace drives the differential trace from fuzz input: the fast and
// reference cost models must agree, and every array must match its dense
// shadow throughout.
func FuzzTrace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x0a\x00\x11\x00\x16\x00\x17"))
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := min(len(data)/4, 256)
		fast := runTraceFrom(t, &byteSource{data}, steps, false)
		ref := runTraceFrom(t, &byteSource{data}, steps, true)
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("fast path diverged from reference\nfast: %+v\nref:  %+v", fast, ref)
		}
	})
}

// TestTouchRangeMatchesPerLine pins the bulk-path equivalence specifically:
// a TouchRange over [lo, hi) must be indistinguishable from touching each
// element's line exactly once in ascending order.
func TestTouchRangeMatchesPerLine(t *testing.T) {
	run := func(bulk bool) (procState, []uint64) {
		sp, _ := space(4)
		g := sim.NewGroup(4)
		a := NewShared[float64](sp, 2048)
		a.PlaceInterleave()
		p := g.Proc(1)
		if bulk {
			a.TouchRange(p, 37, 1500, true)
		} else {
			l0, l1 := a.lineOf(37), a.lineOf(1499)
			for li := l0; li <= l1; li++ {
				a.charge(p, li, true)
			}
		}
		pen := sp.MergeEpoch()
		for i, d := range pen {
			g.Proc(i).Advance(d)
		}
		return procState{p.Now(), p.PhaseTimes(), p.Counters}, sp.CohEvictions()
	}
	bulkSt, bulkEv := run(true)
	lineSt, lineEv := run(false)
	if !reflect.DeepEqual(bulkSt, lineSt) || !reflect.DeepEqual(bulkEv, lineEv) {
		t.Fatalf("bulk TouchRange diverged from per-line charging:\nbulk: %+v %v\nline: %+v %v",
			bulkSt, bulkEv, lineSt, lineEv)
	}
}

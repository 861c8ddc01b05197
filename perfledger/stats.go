package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: fewer, and the top of the distribution is a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether it may be reported: only when at least minBeyond samples lie
// beyond it. p50 therefore needs 21 samples, p90 100 and p99 1000.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n == 0 || rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[rank-1], true
}

// span is one host-time interval.
type span struct{ start, end time.Time }

// selfTimes tiles the compute spans of a jobs-1 engine into busy time. A
// runner compute event starts before its worker-slot wait, so its span
// overlaps the previous compute's; with one slot the busy intervals never
// overlap, and a compute's own time is end - max(start, end of the previous
// compute). The result is indexed like spans.
func selfTimes(spans []span) []time.Duration {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return spans[idx[a]].end.Before(spans[idx[b]].end) })
	self := make([]time.Duration, len(spans))
	var prevEnd time.Time
	for _, i := range idx {
		from := spans[i].start
		if prevEnd.After(from) {
			from = prevEnd
		}
		if d := spans[i].end.Sub(from); d > 0 {
			self[i] = d
		}
		prevEnd = spans[i].end
	}
	return self
}

package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail figure resting on fewer is noise.
const minBeyond = 10

// inf is a failed job's latency: it misses any limit.
var inf = math.Inf(1)

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether at least minBeyond samples lie beyond it. The median is
// exempt from that rule: callers report it whenever xs is non-empty.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= minBeyond
}

// median is the 0.5 percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// ratio divides num by its base, and is 0 when the base is 0: a layer a
// workload never enters reports zero work, not a division error.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

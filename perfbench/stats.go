package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// rank is the 1-based nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int {
	// The epsilon keeps p=99.9, n=10000 at rank 9990 despite rounding.
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentile returns the highest ladder percentile, at most limit,
// that leaves at least minBeyond of n samples above its nearest rank; ok
// is false when the sample is too small to support any. The limit keeps
// a workload's tail at one percentile however fast the host runs it.
func tailPercentile(n int, limit float64) (p float64, ok bool) {
	for _, p := range tailLadder {
		if p <= limit && n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs (sorted in
// place); 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median returns the middle value (mean of the middle two), sorting xs
// in place; 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

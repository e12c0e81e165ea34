package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles the tail rule chooses from, highest first.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// tailStat is the highest ladder percentile that still has at least ten
// samples beyond it, with the sample count it was taken from.
type tailStat struct {
	Pct   float64
	Value float64
	N     int
	// OK is false when no percentile of the ladder has ten samples beyond
	// it (fewer than 20 samples); Value is then the maximum.
	OK bool
}

// tail applies the reporting rule for timing tails: the highest percentile
// with at least ten samples beyond it, by nearest rank (the sample of rank
// ceil(p/100 * n); the samples beyond it are the n - rank larger ones).
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return tailStat{Pct: p, Value: s[rank-1], N: n, OK: true}
		}
	}
	return tailStat{Pct: 100, Value: s[n-1], N: n}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

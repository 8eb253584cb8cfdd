package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// may stand as a class's tail latency.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of ascending samples by
// the nearest-rank method, so the value is always one that was measured.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the nearest-rank position of the q-quantile among n
// samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// tailStat is a class's tail latency: the percentile chosen, its value
// and how many samples lie above it.
type tailStat struct {
	Label  string
	Value  float64
	Beyond int
}

// tailPercentile picks the highest of p99.9, p99 and p90 that leaves at
// least minBeyond samples above it. With fewer than ten times minBeyond
// samples no percentile qualifies and the maximum is reported, labelled
// as such.
func tailPercentile(sorted []float64) tailStat {
	if len(sorted) == 0 {
		return tailStat{Label: "none"}
	}
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		i := rankIndex(len(sorted), p.q)
		if beyond := len(sorted) - 1 - i; beyond >= minBeyond {
			return tailStat{Label: p.label, Value: sorted[i], Beyond: beyond}
		}
	}
	return tailStat{Label: "max", Value: sorted[len(sorted)-1]}
}

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the 0.5 nearest-rank percentile of unsorted samples.
func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

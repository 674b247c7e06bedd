package main

import (
	"math"
	"sort"

	"smartsouth"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, or 0
// when xs is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the midpoint of xs (mean of the two middle values for an even
// count), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio divides, returning 0 for a zero denominator, so metrics of layers
// a workload never touches read 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histDiff is the histogram of the observations made between two
// telemetry snapshots of the same series.
func histDiff(before, after smartsouth.Telemetry, pick func(smartsouth.Telemetry) histView) histView {
	a, b := pick(after), pick(before)
	prev := make(map[int64]int64, len(b.Buckets))
	for _, bc := range b.Buckets {
		prev[bc.Upper] = bc.Count
	}
	var d histView
	d.Count = a.Count - b.Count
	d.Sum = a.Sum - b.Sum
	for _, bc := range a.Buckets {
		if c := bc.Count - prev[bc.Upper]; c > 0 {
			bc.Count = c
			d.Buckets = append(d.Buckets, bc)
		}
	}
	return d
}

// histQuantile is the upper bucket bound at the q-quantile of a diffed
// histogram (buckets ascend by bound), 0 when it is empty.
func histQuantile(h histView, q float64) float64 {
	if h.Count <= 0 {
		return 0
	}
	rank := int64(q*float64(h.Count-1)) + 1
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen >= rank {
			return float64(b.Upper)
		}
	}
	if n := len(h.Buckets); n > 0 {
		return float64(h.Buckets[n-1].Upper)
	}
	return 0
}

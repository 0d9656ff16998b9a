package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between the two nearest ranks (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// ratio is a/b, 0 when b is 0: a layer a workload never enters reports 0
// for its per-unit costs instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spread summarises repeated values of one metric the way the acceptance
// rule reads them: median, quartiles, and the inter-quartile distance as a
// share of the median.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func spreadOf(xs []float64) spread {
	s := sortedCopy(xs)
	return spread{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// iqrShare is (Q3−Q1)/median, the run-to-run spread the bounds are read
// against.
func (s spread) iqrShare() float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Median)) }

// tickQuantile is the q-quantile of integer tick readings, each spread
// uniformly over its tick [v, v+1): a latency read off a 100 µs clock is
// otherwise quantised to steps a tenth the size of the bound it is held to.
func tickQuantile(ticks []float64, q float64) float64 {
	if len(ticks) == 0 {
		return 0
	}
	s := sortedCopy(ticks)
	v := math.Floor(quantile(s, q))
	below := sort.SearchFloat64s(s, v)
	upto := sort.SearchFloat64s(s, v+1)
	within := ratio(q*float64(len(s))-float64(below), float64(upto-below))
	return v + math.Min(math.Max(within, 0), 1)
}

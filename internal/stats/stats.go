// Package stats provides the small statistical helpers the experiment
// harness uses to aggregate results the way the paper's figures do
// (averages across workloads).
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, which must all be positive;
// it returns 0 for an empty slice. Speedup ratios are averaged
// geometrically.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean of non-positive value %g", x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// Max returns the largest element of a non-empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

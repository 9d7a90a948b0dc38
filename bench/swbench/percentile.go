package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. A
// p99 over 200 samples is the second-largest sample, not a tail estimate.
const minBeyond = 10

// percentile returns the exact p-quantile (0 < p < 1) of samples by the
// nearest-rank rule: the smallest sample with at least p·N samples at or
// below it. It refuses, naming the shortfall, when fewer than minBeyond
// samples lie above that rank. samples must be sorted ascending.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if beyond := n - nearestRank(n, p); beyond < minBeyond {
		need := n
		for need-nearestRank(need, p) < minBeyond {
			need++
		}
		return 0, fmt.Errorf("p%g needs %d samples beyond it: have %d samples, %d beyond; need %d samples",
			p*100, minBeyond, n, beyond, need)
	}
	return samples[nearestRank(n, p)-1], nil
}

// nearestRank is the 1-based rank of the p-quantile among n samples. The
// epsilon keeps 0.9·100 from rounding up to 91.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// median returns the middle value of xs (the mean of the two middle
// values when their number is even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) does (the
// default "exclusive" method), so spreads printed here match the ones the
// acceptance check computes. values needs at least two entries.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

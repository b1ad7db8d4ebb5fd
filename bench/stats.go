package main

import (
	"sort"

	"repro/internal/stats"
)

// quartiles returns the three quartile cut points of vs exactly as Python's
// statistics.quantiles(vs, n=4) computes them (the "exclusive" method): the
// acceptance rule for this benchmark is written in those terms, so -agree
// must reproduce it digit for digit. One value is its own three quartiles.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), vs...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	const n = 4
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		q[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// percentiles sorts vs in place and returns the requested percentiles
// (0..100) of it, or zeros when vs is empty.
func percentiles(vs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(vs) == 0 {
		return out
	}
	sort.Float64s(vs)
	for i, p := range ps {
		out[i] = stats.PercentileSorted(vs, p)
	}
	return out
}

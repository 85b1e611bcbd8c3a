package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one op class's latencies in nanoseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())) }

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of the
// samples: the value at rank ceil(p/100 × n) of the sorted list. 0 when
// there are no samples.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples above the p-th percentile's rank. A tail
// percentile with fewer than minBeyond of them is printed with a warning.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

const minBeyond = 10

func (s samples) median() float64 { return s.percentile(50) }

// quartiles returns the first quartile, median and third quartile by the
// method Python's statistics.quantiles(values, n=4) uses (exclusive), so the
// spreads -compare prints are the ones the driver computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

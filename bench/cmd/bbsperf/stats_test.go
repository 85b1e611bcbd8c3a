package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for v := 10; v >= 1; v-- { // unsorted on purpose
		s = append(s, float64(v))
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := (samples{}).percentile(50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := (samples{7}).median(); got != 7 {
		t.Errorf("median of one sample = %g, want 7", got)
	}
}

// A tail percentile is reported as reliable only with at least ten samples
// above its rank: p99 needs a thousand samples, p90 a hundred.
func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 99, 10}, {999, 99, 9}, {100, 90, 10}, {99, 90, 9}, {2400, 99, 24}, {0, 99, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if beyond(999, 99) >= minBeyond || beyond(1000, 99) < minBeyond {
		t.Errorf("the p99 threshold is not at 1000 samples")
	}
}

// The expected values are statistics.quantiles(values, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	} {
		q1, q2, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lowerBetter := boundedMetric{"m", "ms", lower, 0.10}
	higherBetter := boundedMetric{"m", "1/s", higher, 0.10}
	row := func(q1, med, q3 float64) repeatedRow { return repeatedRow{Q1: q1, Median: med, Q3: q3} }
	for _, c := range []struct {
		m    boundedMetric
		a, b repeatedRow
		want string
	}{
		{lowerBetter, row(99, 100, 101), row(104, 105, 106), verdictSame},
		{lowerBetter, row(99, 100, 101), row(110, 111, 112), verdictWorse},
		{lowerBetter, row(99, 100, 101), row(80, 81, 82), verdictSame}, // better is not worse
		{lowerBetter, row(90, 100, 110), row(99, 100, 101), verdictUnresolved},
		{higherBetter, row(99, 100, 101), row(88, 89, 90), verdictWorse},
		{higherBetter, row(99, 100, 101), row(110, 111, 112), verdictSame},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s better, %v -> %v) = %s, want %s", c.m.Better, c.a, c.b, got, c.want)
		}
	}
}

package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileExact(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{20, 0.5, 10},
		{100, 0.5, 50},
		{100, 0.9, 90},
		{101, 0.9, 91},
		{1000, 0.99, 990},
		{1234, 0.99, 1222},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil {
			t.Fatalf("n=%d p=%v: %v", c.n, c.p, err)
		}
		if got != c.want {
			t.Errorf("n=%d p=%v: got %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		need string
	}{
		{19, 0.5, "need 20 samples"},
		{99, 0.9, "need 100 samples"},
		{999, 0.99, "need 1000 samples"},
		{0, 0.5, "need 20 samples"},
	} {
		_, err := percentile(seq(c.n), c.p)
		if err == nil {
			t.Fatalf("n=%d p=%v: want refusal", c.n, c.p)
		}
		if !strings.Contains(err.Error(), c.need) {
			t.Errorf("n=%d p=%v: error %q does not name %q", c.n, c.p, err, c.need)
		}
	}
}

// Reference values from Python: statistics.quantiles([...], n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7, 1, 4, 9, 2}, [3]float64{1.5, 4, 8}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

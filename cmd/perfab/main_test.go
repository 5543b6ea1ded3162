package main

import "testing"

func TestQuartilesInterpolate(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 3.25, 5.5, 7.75},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g, want %g, %g, %g", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// The pairing rule: a gain needs nine tenths of the pairs and a median
// gap wider than the parent's IQR; the bound is on the median's relative
// loss, in the metric's own direction.
func TestJudge(t *testing.T) {
	lower := endToEnd{Better: "lower", Bound: 0.25}
	higher := endToEnd{Better: "higher", Bound: 0.25}
	parent := []float64{1.8, 1.9, 1.85, 1.95, 1.82, 1.88, 1.91, 1.87, 1.93, 1.84}
	faster := []float64{1.0, 1.1, 1.05, 1.02, 1.03, 1.04, 1.01, 1.06, 1.99, 1.03}
	for _, tc := range []struct {
		name           string
		m              endToEnd
		parent, change []float64
		wins           int
		claim, inBound bool
	}{
		{"clear win, one lost pair", lower, parent, faster, 9, true, true},
		{"same runs", lower, parent, parent, 0, false, true},
		{"higher is better", higher, faster, parent, 9, true, true},
		{"too slow", lower, faster, parent, 1, false, false},
		{"wins inside the IQR", lower, []float64{1, 3, 1, 3}, []float64{0.9, 2.9, 0.9, 2.9}, 4, false, true},
	} {
		v := judge(tc.m, tc.parent, tc.change)
		if v.wins != tc.wins || v.claim != tc.claim || v.withinBound != tc.inBound {
			t.Errorf("%s: wins %d claim %v in bound %v, want %d %v %v",
				tc.name, v.wins, v.claim, v.withinBound, tc.wins, tc.claim, tc.inBound)
		}
	}
}

package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function over observed
// samples. The zero value is empty and ready to use.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF builds a CDF from samples (copied).
func NewCDF(samples []float64) *CDF {
	c := &CDF{samples: append([]float64(nil), samples...)}
	c.sort()
	return c
}

// Add appends a sample.
func (c *CDF) Add(x float64) {
	c.samples = append(c.samples, x)
	c.sorted = false
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns the empirical CDF value P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sort()
	i := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.samples))
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples.
func (c *CDF) Quantile(q float64) float64 {
	c.sort()
	return Percentile(c.samples, q*100)
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 { return Mean(c.samples) }

// Min returns the smallest sample.
func (c *CDF) Min() float64 { return Min(c.samples) }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return Max(c.samples) }

// Points returns up to n evenly spaced (x, P(X<=x)) pairs spanning the
// sample range, suitable for plotting the CDF curve.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	c.sort()
	lo, hi := c.samples[0], c.samples[len(c.samples)-1]
	pts := make([][2]float64, 0, n)
	if n == 1 || hi == lo {
		return append(pts, [2]float64{lo, c.At(lo)})
	}
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts = append(pts, [2]float64{x, c.At(x)})
	}
	return pts
}

// Table renders the CDF as a fixed-width two-column text table with n rows,
// for experiment reports.
func (c *CDF) Table(n int, xLabel string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %s\n", xLabel, "CDF")
	for _, p := range c.Points(n) {
		fmt.Fprintf(&b, "%-14.4g %.3f\n", p[0], p[1])
	}
	return b.String()
}

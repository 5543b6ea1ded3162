package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGReproducibility(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give the same stream")
		}
	}
}

func TestComplexNormalVariance(t *testing.T) {
	g := NewRNG(1)
	const n = 200000
	sigma2 := 3.0
	var acc float64
	for i := 0; i < n; i++ {
		v := g.ComplexNormal(sigma2)
		acc += real(v)*real(v) + imag(v)*imag(v)
	}
	got := acc / n
	if math.Abs(got-sigma2) > 0.05*sigma2 {
		t.Fatalf("ComplexNormal variance = %g, want %g", got, sigma2)
	}
}

func TestLogNormalDBMedian(t *testing.T) {
	g := NewRNG(2)
	const n = 100001
	v := make([]float64, n)
	for i := range v {
		v[i] = g.LogNormalDB(6)
	}
	med := Percentile(v, 50)
	// Median of a 0-mean log-normal in dB is 1 in linear.
	if med < 0.9 || med > 1.1 {
		t.Fatalf("log-normal median = %g, want ~1", med)
	}
}

func TestUnitPhasorMagnitude(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 100; i++ {
		p := g.UnitPhasor()
		mag := math.Hypot(real(p), imag(p))
		if math.Abs(mag-1) > 1e-12 {
			t.Fatalf("phasor magnitude = %g, want 1", mag)
		}
	}
}

func TestPercentileEdges(t *testing.T) {
	v := []float64{3, 1, 2}
	if p := Percentile(v, 0); p != 1 {
		t.Fatalf("P0 = %g, want 1", p)
	}
	if p := Percentile(v, 100); p != 3 {
		t.Fatalf("P100 = %g, want 3", p)
	}
	if p := Percentile(v, 50); p != 2 {
		t.Fatalf("P50 = %g, want 2", p)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
}

// CDF.At is monotone nondecreasing and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		c := &CDF{}
		for i := 0; i < 50; i++ {
			c.Add(g.Normal(0, 10))
		}
		prev := -1.0
		for x := -30.0; x <= 30; x += 1.5 {
			p := c.At(x)
			if p < 0 || p > 1 || p < prev {
				return false
			}
			prev = p
		}
		return c.At(math.Inf(1)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantileAndStats(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if m := c.Mean(); m != 3 {
		t.Fatalf("mean = %g, want 3", m)
	}
	if q := c.Quantile(0.5); q != 3 {
		t.Fatalf("median = %g, want 3", q)
	}
	if c.Min() != 1 || c.Max() != 5 {
		t.Fatalf("min/max = %g/%g", c.Min(), c.Max())
	}
	if n := c.N(); n != 5 {
		t.Fatalf("N = %d, want 5", n)
	}
	pts := c.Points(5)
	if len(pts) != 5 || pts[0][0] != 1 || pts[4][0] != 5 {
		t.Fatalf("Points = %v", pts)
	}
	if tab := c.Table(3, "x"); len(tab) == 0 {
		t.Fatal("empty table")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(9)
	a := g.Split()
	b := g.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collide %d/100 times", same)
	}
}

func TestBits(t *testing.T) {
	g := NewRNG(10)
	bits := g.Bits(1000)
	ones := 0
	for _, b := range bits {
		if b != 0 && b != 1 {
			t.Fatalf("bit value %d out of range", b)
		}
		if b == 1 {
			ones++
		}
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("ones = %d/1000, want roughly balanced", ones)
	}
}

package shieldd

import (
	"fmt"
	"sync"
	"testing"

	"heartshield/internal/stats"
	"heartshield/internal/testbed"
)

// The pool must actually recycle: a put scenario comes back on the next
// same-shape get — including for fully defaulted request options, whose
// shape key must match the defaults-resolved options a built scenario
// records (the normalization bug class this test pins down).
func TestPoolRecyclesSameScenario(t *testing.T) {
	p := newScenarioPool(4)
	requests := []testbed.Options{
		{Seed: 1},               // fully defaulted
		{Seed: 1, Location: 5},  // explicit location
		{Seed: 1, ExtraIMDs: 2}, // multi-IMD shape
		{Seed: 1, DigitalCancel: true},
	}
	for _, opt := range requests {
		first := p.get(opt)
		p.put(first)
		opt2 := opt
		opt2.Seed = 42
		second := p.get(opt2)
		if first != second {
			t.Errorf("options %+v: pool built a fresh scenario instead of recycling", opt)
		}
		if second.Opt.Seed != 42 {
			t.Errorf("options %+v: recycled scenario not reset to requested seed", opt)
		}
	}
}

// Different shapes must not share scenarios (a recycled link set cannot
// be reshaped), and the per-shape idle bound must hold.
func TestPoolShapesAreDisjointAndBounded(t *testing.T) {
	p := newScenarioPool(2)
	def := p.get(testbed.Options{Seed: 1})
	p.put(def)
	multi := p.get(testbed.Options{Seed: 1, ExtraIMDs: 1})
	if multi == def {
		t.Fatal("pool handed a 1-IMD scenario to a multi-IMD request")
	}
	if got := p.get(testbed.Options{Seed: 2, ExtraIMDs: 1}); got == multi {
		t.Fatal("pool recycled a scenario that was never put back")
	}

	// def is already idle; five more default-shape puts must cap at the
	// per-shape bound of 2.
	for i := 0; i < 5; i++ {
		p.put(testbed.NewScenario(testbed.Options{Seed: int64(i)}))
	}
	if n := p.idle(); n != 2 {
		t.Fatalf("pool retains %d idle scenarios, want exactly the per-shape bound of 2", n)
	}
}

// The pool bounds its total retained scenarios across all shapes at
// perShape*poolTotalFactor, even when every individual shape is under
// its own per-shape bound — the memory backstop for shape-diverse
// workloads. The 18 locations give 18 distinct shapes, more than the
// total bound holds at perShape each.
func TestPoolTotalBound(t *testing.T) {
	const perShape = 2
	p := newScenarioPool(perShape)
	for loc := 1; loc <= len(testbed.Locations); loc++ {
		for i := 0; i < perShape; i++ {
			p.put(testbed.NewScenario(testbed.Options{Seed: int64(i + 1), Location: loc}))
		}
	}
	if want := perShape * poolTotalFactor; p.idle() != want {
		t.Fatalf("pool retains %d scenarios, want the total bound %d", p.idle(), want)
	}
}

// The idle() aggregate must track get/put exactly: it is the counter
// metrics scrapes read, so drift would misreport pool health forever.
func TestPoolIdleAggregateTracksGetPut(t *testing.T) {
	p := newScenarioPool(8)
	opt := testbed.Options{Seed: 3}
	if p.idle() != 0 {
		t.Fatal("fresh pool reports idle scenarios")
	}
	a, b := p.get(opt), p.get(opt)
	p.put(a)
	if p.idle() != 1 {
		t.Fatalf("idle() = %d after one put, want 1", p.idle())
	}
	p.put(b)
	if p.idle() != 2 {
		t.Fatalf("idle() = %d after two puts, want 2", p.idle())
	}
	_ = p.get(opt)
	if p.idle() != 1 {
		t.Fatalf("idle() = %d after a recycling get, want 1", p.idle())
	}
	// A fresh-build get (empty shape) must not change the aggregate.
	_ = p.get(testbed.Options{Seed: 4, ExtraIMDs: 1})
	if p.idle() != 1 {
		t.Fatalf("idle() = %d after a fresh-build get, want 1", p.idle())
	}
}

// Recycled scenarios must be bit-exact against fresh builds under
// concurrent get/put from 16 goroutines mixing shapes and seeds — the
// pool's core correctness contract, raced in the `make race` leg. The fingerprint is the IMD calibration measurement: a real
// physics number drawn from the scenario's RNG streams, so any
// cross-contamination of recycled state shows up as a mismatch.
func TestPoolConcurrentRecyclingIsBitExact(t *testing.T) {
	shapes := []testbed.Options{
		{},
		{ExtraIMDs: 1},
		{DigitalCancel: true},
		{Location: 7},
	}
	const seedsPerShape = 4

	// Reference fingerprints from fresh builds, computed serially.
	ref := make(map[testbed.Options]float64)
	for _, shape := range shapes {
		for s := 0; s < seedsPerShape; s++ {
			opt := shape
			opt.Seed = stats.TrialSeed(991, s)
			ref[opt] = testbed.NewScenario(opt).CalibrateIMD(0)
		}
	}

	p := newScenarioPool(4)
	const goroutines = 16
	const itersPerG = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < itersPerG; i++ {
				shape := shapes[(g+i)%len(shapes)]
				opt := shape
				opt.Seed = stats.TrialSeed(991, (g*itersPerG+i)%seedsPerShape)
				sc := p.get(opt)
				got := sc.CalibrateIMD(0)
				if want := ref[opt]; got != want {
					select {
					case errs <- fmt.Errorf("shape %+v seed %d: recycled calibration %v != fresh %v",
						shape, opt.Seed, got, want):
					default:
					}
				}
				p.put(sc)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if p.idle() < 0 || p.idle() > 4*len(shapes)*seedsPerShape {
		t.Fatalf("idle() = %d out of any plausible range", p.idle())
	}
}

package shieldd

import (
	"sync"

	"heartshield/internal/testbed"
)

// poolTotalFactor bounds the pool's TOTAL retained scenarios to
// perShape * this factor, so a workload cycling through many distinct
// shapes cannot grow the pool without bound even though every
// individual shape respects its per-shape cap.
const poolTotalFactor = 4

// scenarioPool recycles testbed scenarios between sessions. Building a
// scenario allocates the whole IQ-level testbed (medium, devices, radio
// chains, modem plans); recycling one is a Reset call — a pure RNG
// re-derivation. Scenarios are pooled per shape (options minus seed),
// because the link set is baked in at construction; Reset makes a pooled
// scenario bit-identical to a fresh build at the session's seed, so which
// physical scenario serves a session is unobservable.
//
// One mutex guards the free lists. A session takes it twice in its
// lifetime, for one map operation each time, beside a Reset and a
// calibration that cost milliseconds, so it does not contend even at a
// thousand concurrent sessions (see DESIGN.md "Scenario pool").
type scenarioPool struct {
	// perShape bounds how many idle scenarios each shape retains;
	// maxTotal bounds them across all shapes (perShape * poolTotalFactor).
	perShape, maxTotal int

	mu    sync.Mutex
	free  map[testbed.Options][]*testbed.Scenario
	total int
}

func newScenarioPool(perShape int) *scenarioPool {
	return &scenarioPool{
		perShape: perShape,
		maxTotal: perShape * poolTotalFactor,
		free:     make(map[testbed.Options][]*testbed.Scenario),
	}
}

// shapeKey is the pool key: the scenario options normalized (so a
// defaulted request and the defaults-resolved options a built scenario
// records compare equal) with the seed zeroed.
func shapeKey(opt testbed.Options) testbed.Options {
	opt = opt.Normalized()
	opt.Seed = 0
	return opt
}

// get returns a scenario for the given options, recycled if one with the
// same shape is idle, freshly built otherwise. Either way the caller
// receives a scenario indistinguishable from NewScenario(opt).
func (p *scenarioPool) get(opt testbed.Options) *testbed.Scenario {
	key := shapeKey(opt)
	p.mu.Lock()
	list := p.free[key]
	n := len(list)
	if n == 0 {
		p.mu.Unlock()
		return testbed.NewScenario(opt)
	}
	sc := list[n-1]
	list[n-1] = nil
	p.free[key] = list[:n-1]
	p.total--
	p.mu.Unlock()
	sc.Reset(opt.Seed)
	return sc
}

// put returns an idle scenario to the pool. It is retained only while
// both its shape's bound and the pool's total bound have room; otherwise
// it is dropped for the GC.
func (p *scenarioPool) put(sc *testbed.Scenario) {
	key := shapeKey(sc.Opt)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free[key]) < p.perShape && p.total < p.maxTotal {
		p.free[key] = append(p.free[key], sc)
		p.total++
	}
}

// idle reports the number of pooled scenarios.
func (p *scenarioPool) idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.total
}

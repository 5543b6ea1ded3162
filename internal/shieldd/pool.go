package shieldd

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"heartshield/internal/testbed"
)

// poolShardCount is the number of independent shards the scenario pool
// splits its free lists across. Power of two so the shard index is a
// mask of the shape-key hash. 16 shards keeps worst-case lock contention
// at fleet scale to 1/16th of a single-mutex pool while staying small
// enough that a mostly-idle server wastes nothing.
const poolShardCount = 16

// poolShardCapFactor bounds each shard's TOTAL retained scenarios to
// perShape * this factor, so a workload cycling through many distinct
// shapes cannot grow a shard's memory without bound even though every
// individual shape respects its per-shape cap.
const poolShardCapFactor = 4

// scenarioPool recycles testbed scenarios between sessions. Building a
// scenario allocates the whole IQ-level testbed (medium, devices, radio
// chains, modem plans); recycling one is a Reset call — a pure RNG
// re-derivation. Scenarios are pooled per shape (options minus seed),
// because the link set is baked in at construction; Reset makes a pooled
// scenario bit-identical to a fresh build at the session's seed, so which
// physical scenario serves a session is unobservable.
//
// The pool is sharded by shape-key hash: each shape lives in exactly one
// shard (its own mutex, free-list map, and total bound), so concurrent
// session churn across different shapes never serializes on one lock,
// and same-shape churn contends only with itself. The idle count is a
// single atomic aggregate, so metrics scrapes never take any pool lock.
type scenarioPool struct {
	// perShape bounds how many idle scenarios each shape retains.
	perShape int
	// shardCap bounds each shard's total retained scenarios across all
	// of its shapes (perShape * poolShardCapFactor).
	shardCap int
	// idleN is the lock-free pooled-scenario aggregate behind idle().
	idleN  atomic.Int64
	shards [poolShardCount]poolShard
}

// poolShard is one independently locked slice of the pool.
type poolShard struct {
	mu    sync.Mutex
	free  map[testbed.Options][]*testbed.Scenario
	total int
}

func newScenarioPool(perShape int) *scenarioPool {
	if perShape <= 0 {
		perShape = 16
	}
	p := &scenarioPool{
		perShape: perShape,
		shardCap: perShape * poolShardCapFactor,
	}
	for i := range p.shards {
		p.shards[i].free = make(map[testbed.Options][]*testbed.Scenario)
	}
	return p
}

// shapeKey is the pool key: the scenario options normalized (so a
// defaulted request and the defaults-resolved options a built scenario
// records compare equal) with the seed zeroed.
func shapeKey(opt testbed.Options) testbed.Options {
	opt = opt.Normalized()
	opt.Seed = 0
	return opt
}

// shapeShardIndex maps a normalized shape key onto its shard: FNV-1a
// over the key's printed form, masked to the shard count. The printed
// form is a pure function of the key's field values, so the assignment
// is stable across calls, goroutines, and processes — a shape always
// lives in exactly one shard.
func shapeShardIndex(key testbed.Options) int {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", key)
	return int(h.Sum64() & (poolShardCount - 1))
}

// get returns a scenario for the given options, recycled if one with the
// same shape is idle, freshly built otherwise. Either way the caller
// receives a scenario indistinguishable from NewScenario(opt).
func (p *scenarioPool) get(opt testbed.Options) *testbed.Scenario {
	key := shapeKey(opt)
	sh := &p.shards[shapeShardIndex(key)]
	sh.mu.Lock()
	list := sh.free[key]
	if n := len(list); n > 0 {
		sc := list[n-1]
		list[n-1] = nil
		sh.free[key] = list[:n-1]
		sh.total--
		sh.mu.Unlock()
		p.idleN.Add(-1)
		sc.Reset(opt.Seed)
		return sc
	}
	sh.mu.Unlock()
	return testbed.NewScenario(opt)
}

// put returns an idle scenario to the pool. It is retained only while
// both its shape's bound and its shard's total bound have room;
// otherwise it is dropped for the GC.
func (p *scenarioPool) put(sc *testbed.Scenario) {
	key := shapeKey(sc.Opt)
	sh := &p.shards[shapeShardIndex(key)]
	sh.mu.Lock()
	if len(sh.free[key]) < p.perShape && sh.total < p.shardCap {
		sh.free[key] = append(sh.free[key], sc)
		sh.total++
		sh.mu.Unlock()
		p.idleN.Add(1)
		return
	}
	sh.mu.Unlock()
}

// idle reports the number of pooled scenarios. Lock-free: one atomic
// load, so metrics scrapes stay cheap no matter how many
// sessions are churning the pool.
func (p *scenarioPool) idle() int { return int(p.idleN.Load()) }

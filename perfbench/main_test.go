package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"heartshield"
)

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 5000; n++ {
		q := tailQuantile(n)
		if n-rank(q, n) < tailBeyond {
			// Only the median fallback may lack the samples beyond it, and
			// only when no ladder entry has them.
			if q != 0.5 {
				t.Fatalf("n=%d: p%g has %d samples beyond it, want >= %d", n, q*100, n-rank(q, n), tailBeyond)
			}
			continue
		}
		for _, higher := range tailLadder {
			if higher <= q {
				break
			}
			if n-rank(higher, n) >= tailBeyond {
				t.Fatalf("n=%d: chose p%g but the higher p%g also qualifies", n, q*100, higher*100)
			}
		}
	}
	for _, c := range []struct {
		n int
		q float64
	}{{1500, 0.99}, {1000, 0.99}, {999, 0.98}, {200, 0.95}, {100, 0.9}, {40, 0.75}, {20, 0.5}, {19, 0.5}, {5, 0.5}} {
		if got := tailQuantile(c.n); got != c.q {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.q)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	var tm timings
	for i := 100; i >= 1; i-- {
		tm.add(time.Duration(i) * time.Millisecond)
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0.001: 1} {
		if got := tm.quantile(q); got != want*time.Millisecond {
			t.Errorf("quantile(%g) = %v, want %v", q, got, want*time.Millisecond)
		}
	}
	if got := tm.mean(); got != 50500*time.Microsecond {
		t.Errorf("mean = %v, want 50.5ms", got)
	}
}

func TestIQMMovesWithClusterShares(t *testing.T) {
	var tm timings
	for i := 1; i <= 8; i++ {
		tm.add(time.Duration(i))
	}
	tm.add(1000) // an outlier the middle half leaves out
	if got := tm.iqm(); got != 5 {
		t.Errorf("iqm = %v, want the mean of 3..7 = 5ns", got)
	}
	// Two clusters, fast (2) and slow (3), with the slow share just under
	// and just over one half: the median jumps from one to the other, the
	// interquartile mean barely moves.
	clusters := func(fast, slow int) *timings {
		var c timings
		for i := 0; i < fast; i++ {
			c.add(2 * time.Millisecond)
		}
		for i := 0; i < slow; i++ {
			c.add(3 * time.Millisecond)
		}
		return &c
	}
	a, b := clusters(52, 48), clusters(48, 52)
	if a.quantile(0.5) != 2*time.Millisecond || b.quantile(0.5) != 3*time.Millisecond {
		t.Fatalf("medians %v and %v, want the jump from 2ms to 3ms", a.quantile(0.5), b.quantile(0.5))
	}
	if d := b.iqm() - a.iqm(); d <= 0 || d > 100*time.Microsecond {
		t.Errorf("iqm moved by %v between the shares, want a small positive move", d)
	}
	var few timings
	few.add(3)
	few.add(1)
	few.add(2)
	if got := few.iqm(); got != 2 {
		t.Errorf("3 samples: iqm = %v, want the median 2ns", got)
	}
}

func TestTailMeanAveragesTheSlowestShare(t *testing.T) {
	// 1000 samples: the slowest 5% are 50 samples, 20 of them at 5ms.
	var tm timings
	for i := 0; i < 980; i++ {
		tm.add(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		tm.add(5 * time.Millisecond)
	}
	if got, want := tm.tailMean(), (20*5+30)*time.Millisecond/50; got != want {
		t.Errorf("tailMean = %v, want %v", got, want)
	}
	// A slow cluster near 2% of the samples: p98 jumps between the body and
	// the cluster, the tail mean moves by the cluster's share.
	cluster := func(slow int) *timings {
		var c timings
		for i := 0; i < 1000-slow; i++ {
			c.add(2 * time.Millisecond)
		}
		for i := 0; i < slow; i++ {
			c.add(5 * time.Millisecond)
		}
		return &c
	}
	a, b := cluster(19), cluster(21)
	if a.quantile(0.98) != 2*time.Millisecond || b.quantile(0.98) != 5*time.Millisecond {
		t.Fatalf("p98 %v and %v, want the jump from 2ms to 5ms", a.quantile(0.98), b.quantile(0.98))
	}
	if d := b.tailMean() - a.tailMean(); d <= 0 || d > 200*time.Microsecond {
		t.Errorf("tail mean moved by %v between the shares, want a small positive move", d)
	}
	// Fewer than 200 samples: still at least tailBeyond of them.
	var few timings
	for i := 1; i <= 20; i++ {
		few.add(time.Duration(i))
	}
	if got := few.tailMean(); got != 15 {
		t.Errorf("20 samples: tailMean = %v, want the mean of the slowest 10 = 15ns", got)
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricNamesAreValidAndMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !validName.MatchString(name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-] of at most 64", name)
		}
		if !validUnit.MatchString(unit) {
			t.Errorf("metric %s: unit %q is invalid", name, unit)
		}
		if seen[name] {
			t.Errorf("metric name %q is used twice", name)
		}
		seen[name] = true
	}

	e2e := endToEnd(&leg{wall: time.Second}, 1, 1)
	if len(e2e) != len(bj.EndToEnd) {
		t.Errorf("end-to-end metrics: program reports %d, BENCHMARK.json lists %d", len(e2e), len(bj.EndToEnd))
	}
	for _, m := range bj.EndToEnd {
		check(m.Name, m.Unit)
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program reports %+v", m.Name, m.Unit, got)
		}
	}

	if len(perLayer) != len(bj.PerLayer) {
		t.Fatalf("per-layer metrics: program reports %d, BENCHMARK.json lists %d", len(perLayer), len(bj.PerLayer))
	}
	for i, m := range bj.PerLayer {
		check(m.Name, m.Unit)
		if perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer #%d: program %+v, BENCHMARK.json %s (%s)", i, perLayer[i], m.Name, m.Unit)
		}
	}
	for metricName, spanName := range spanMetrics {
		unit := metricName[strings.LastIndexByte(metricName, '_')+1:]
		if _, ok := unitScale[unit]; !ok || !seen[metricName] {
			t.Errorf("span metric %s (span %s) has no time unit or is not listed", metricName, spanName)
		}
	}

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
}

func TestExperimentMetricsCoverTheRegistry(t *testing.T) {
	var want, got []string
	for _, e := range heartshield.Experiments() {
		if e.Name != aliasName {
			want = append(want, "experiments."+e.Name+"_ms")
		}
	}
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "experiments.") && strings.HasSuffix(m.name, "_ms") {
			got = append(got, m.name)
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(want, ",") != strings.Join(got, ",") {
		t.Errorf("experiment metrics %v, registry gives %v", got, want)
	}
}

// TestSeedChangesInputsNotMetricNames runs a short exchange leg at two
// seeds: the sessions' inputs differ, the metric names do not.
func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	var firsts [2]outcome
	var keys [2][]string
	for k, seed := range []int64{1, 2} {
		rr, err := setupExchange(seed)
		if err != nil {
			t.Fatal(err)
		}
		r := rr.(*exchangeRig)
		lg, err := r.measure(time.Now().Add(100*time.Millisecond), nil)
		if err != nil {
			r.close()
			t.Fatal(err)
		}
		if err := r.check(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		firsts[k] = r.results[0][0]
		for name := range endToEnd(lg, 1, 1) {
			keys[k] = append(keys[k], name)
		}
		sort.Strings(keys[k])
		r.close()
	}
	if firsts[0].equal(firsts[1]) {
		t.Errorf("seeds 1 and 2 gave the same first exchange %+v", firsts[0])
	}
	if strings.Join(keys[0], ",") != strings.Join(keys[1], ",") {
		t.Errorf("metric names changed with the seed: %v vs %v", keys[0], keys[1])
	}
}

func TestFigureShapeChecks(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "testdata", "golden", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	fig9, fig11 := read("fig9"), read("fig11")
	if err := checkFig9(fig9); err != nil {
		t.Errorf("golden fig9: %v", err)
	}
	if err := checkFig11(fig11); err != nil {
		t.Errorf("golden fig11: %v", err)
	}
	if err := checkFig9(strings.Replace(fig9, "0.500", "0.120", 1)); err == nil {
		t.Error("fig9 with a location at BER 0.12 passed")
	}
	// One decoded trial of a location's eight, as at seed 40.
	if err := checkFig9(strings.Replace(fig9, "0.500", "0.432", 1)); err != nil {
		t.Errorf("fig9 with one location at BER 0.432: %v", err)
	}
	if err := checkFig11(strings.Replace(fig11, "0.00\n", "0.90\n", 1)); err == nil {
		t.Error("fig11 with a shield-on success of 0.90 passed")
	}
}

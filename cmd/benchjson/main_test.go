package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	for _, c := range []struct {
		line string
		ok   bool
		want Result
	}{
		{
			line: "BenchmarkFSKSync-2   	    3253	    314647 ns/op	      41 B/op	       0 allocs/op",
			ok:   true,
			want: Result{Name: "BenchmarkFSKSync", Package: "p", Iters: 3253, NsPerOp: 314647,
				Metrics: map[string]float64{"B/op": 41, "allocs/op": 0}},
		},
		{
			line: "BenchmarkProtectedExchange 514 2351095 ns/op 0.007782 lossRate",
			ok:   true,
			want: Result{Name: "BenchmarkProtectedExchange", Package: "p", Iters: 514, NsPerOp: 2351095,
				Metrics: map[string]float64{"lossRate": 0.007782}},
		},
		{
			line: "BenchmarkPlain-8 100 12.5 ns/op",
			ok:   true,
			want: Result{Name: "BenchmarkPlain", Package: "p", Iters: 100, NsPerOp: 12.5},
		},
		{line: "BenchmarkName-x 100 5 ns/op", ok: true,
			want: Result{Name: "BenchmarkName-x", Package: "p", Iters: 100, NsPerOp: 5}},
		{line: "BenchmarkShort 100", ok: false},
		{line: "BenchmarkBadIters x 5 ns/op", ok: false},
		{line: "BenchmarkBadValue 10 fast ns/op", ok: false},
		{line: "ok  	heartshield/internal/modem	4.716s", ok: false},
		{line: "PASS", ok: false},
	} {
		got, ok := parseBenchLine(c.line, "p")
		if ok != c.ok {
			t.Fatalf("%q: ok = %v, want %v", c.line, ok, c.ok)
		}
		if ok && !sameResult(got, c.want) {
			t.Fatalf("%q: parsed %+v, want %+v", c.line, got, c.want)
		}
	}
}

func TestParseTracksPackages(t *testing.T) {
	in := `goos: linux
pkg: heartshield/internal/dsp
BenchmarkFFTForward256-2 500000 2244 ns/op
PASS
pkg: heartshield/internal/modem
BenchmarkFSKSync-2 3000 314647 ns/op
`
	got, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Package != "heartshield/internal/dsp" || got[1].Package != "heartshield/internal/modem" {
		t.Fatalf("parsed %+v", got)
	}
}

func TestCollapseTakesMedians(t *testing.T) {
	lines := []Result{
		{Name: "BenchmarkA", Package: "p", Iters: 10, NsPerOp: 300, Metrics: map[string]float64{"B/op": 8}},
		{Name: "BenchmarkB", Package: "p", Iters: 7, NsPerOp: 50},
		{Name: "BenchmarkA", Package: "p", Iters: 30, NsPerOp: 100, Metrics: map[string]float64{"B/op": 0}},
		{Name: "BenchmarkA", Package: "p", Iters: 20, NsPerOp: 900, Metrics: map[string]float64{"B/op": 4}},
		{Name: "BenchmarkB", Package: "p", Iters: 9, NsPerOp: 70},
		{Name: "BenchmarkA", Package: "q", Iters: 1, NsPerOp: 5},
	}
	got := collapse(lines)
	want := []Result{
		{Name: "BenchmarkA", Package: "p", Runs: 3, Iters: 20, NsPerOp: 300, MinNs: 100, MaxNs: 900,
			Metrics: map[string]float64{"B/op": 4}},
		{Name: "BenchmarkB", Package: "p", Runs: 2, Iters: 8, NsPerOp: 60, MinNs: 50, MaxNs: 70},
		{Name: "BenchmarkA", Package: "q", Runs: 1, Iters: 1, NsPerOp: 5, MinNs: 5, MaxNs: 5},
	}
	if len(got) != len(want) {
		t.Fatalf("collapsed to %d results, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if !sameResult(got[i], want[i]) {
			t.Errorf("result %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkSteady", Package: "p", NsPerOp: 1000},
		{Name: "BenchmarkSlower", Package: "p", NsPerOp: 1000},
		{Name: "BenchmarkEdge", Package: "p", NsPerOp: 1000},
		{Name: "BenchmarkRetired", Package: "p", NsPerOp: 1000},
	}
	latest := []Result{
		{Name: "BenchmarkSteady", Package: "p", Runs: 5, NsPerOp: 900, MinNs: 850, MaxNs: 2000},
		{Name: "BenchmarkEdge", Package: "p", Runs: 5, NsPerOp: 1250},
		{Name: "BenchmarkAdded", Package: "p", Runs: 5, NsPerOp: 10},
	}
	var out bytes.Buffer
	if !compare(&out, base, latest, 25) {
		t.Fatalf("gate failed without a regression:\n%s", out.String())
	}
	for _, want := range []string{
		"OK       p.BenchmarkSteady",
		"OK       p.BenchmarkEdge",
		"NEW      p.BenchmarkAdded",
		"MISSING  p.BenchmarkSlower",
		"MISSING  p.BenchmarkRetired",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}

	latest = append(latest, Result{Name: "BenchmarkSlower", Package: "p", Runs: 5, NsPerOp: 1300, MinNs: 1200, MaxNs: 1400})
	out.Reset()
	if compare(&out, base, latest, 25) {
		t.Fatalf("gate passed a 30%% median regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESS  p.BenchmarkSlower") {
		t.Errorf("report lacks the regression:\n%s", out.String())
	}
}

func sameResult(a, b Result) bool {
	if a.Name != b.Name || a.Package != b.Package || a.Runs != b.Runs || a.Iters != b.Iters ||
		a.NsPerOp != b.NsPerOp || a.MinNs != b.MinNs || a.MaxNs != b.MaxNs || len(a.Metrics) != len(b.Metrics) {
		return false
	}
	for k, v := range a.Metrics {
		if w, ok := b.Metrics[k]; !ok || w != v {
			return false
		}
	}
	return true
}

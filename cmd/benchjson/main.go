// Command benchjson converts `go test -bench` text output on stdin into a
// JSON array on stdout, one object per benchmark, so CI can archive and
// diff benchmark runs (see `make bench`, which writes BENCH_latest.json).
//
// A benchmark run several times (`go test -count N`) collapses to one
// object: ns/op, the allocation metrics when -benchmem is on, and every
// custom metric reported via b.ReportMetric (e.g. lossRate,
// meanCancel_dB) are the medians across the runs, with the fastest and
// slowest ns/op recorded beside them.
//
// With -baseline, benchjson additionally compares the parsed run against
// a checked-in baseline JSON (produced by an earlier benchjson run) and
// exits non-zero when any benchmark present in both regressed by more
// than -threshold percent in median ns/op — the CI perf gate
// (`make benchcheck`). Benchmarks missing from either side are reported
// but never fail the gate, so adding or retiring benchmarks does not
// break CI.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson > BENCH_latest.json
//	go test -bench=Exchange -count 5 ./... | benchjson -baseline BENCH_baseline.json -threshold 25 > BENCH_latest.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark: a single parsed line, or the medians of
// several runs of the same benchmark.
type Result struct {
	Name    string             `json:"name"`
	Package string             `json:"package,omitempty"`
	Runs    int                `json:"runs,omitempty"`
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	MinNs   float64            `json:"min_ns_per_op,omitempty"`
	MaxNs   float64            `json:"max_ns_per_op,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	baseline := flag.String("baseline", "", "baseline JSON to compare against (enables the perf gate)")
	threshold := flag.Float64("threshold", 25, "max allowed median ns/op regression percent vs the baseline")
	flag.Parse()

	results, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	results = collapse(results)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
			os.Exit(1)
		}
		if !compare(os.Stderr, base, results, *threshold) {
			os.Exit(1)
		}
	}
}

// parse reads `go test -bench` output and returns one Result per
// benchmark line, tagged with the package of the preceding "pkg:" line.
func parse(r io.Reader) ([]Result, error) {
	var results []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if r, ok := parseBenchLine(line, pkg); ok {
			results = append(results, r)
		}
	}
	return results, sc.Err()
}

func loadBaseline(path string) ([]Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base []Result
	err = json.Unmarshal(raw, &base)
	return base, err
}

// key identifies a benchmark across runs.
func key(r Result) string { return r.Package + "." + r.Name }

// collapse merges the runs of each benchmark into one Result holding the
// median of every field, in order of first appearance.
func collapse(lines []Result) []Result {
	var order []string
	runs := map[string][]Result{}
	for _, r := range lines {
		k := key(r)
		if _, ok := runs[k]; !ok {
			order = append(order, k)
		}
		runs[k] = append(runs[k], r)
	}
	out := make([]Result, 0, len(order))
	for _, k := range order {
		rs := runs[k]
		res := Result{Name: rs[0].Name, Package: rs[0].Package, Runs: len(rs)}
		ns := make([]float64, len(rs))
		iters := make([]float64, len(rs))
		units := map[string][]float64{}
		for i, r := range rs {
			ns[i] = r.NsPerOp
			iters[i] = float64(r.Iters)
			for u, v := range r.Metrics {
				units[u] = append(units[u], v)
			}
		}
		res.NsPerOp = median(ns)
		res.MinNs, res.MaxNs = slices.Min(ns), slices.Max(ns)
		res.Iters = int64(median(iters))
		if len(units) > 0 {
			res.Metrics = make(map[string]float64, len(units))
			for u, vs := range units {
				res.Metrics[u] = median(vs)
			}
		}
		out = append(out, res)
	}
	return out
}

// median returns the middle value of v (the mean of the middle two for an
// even count). It sorts v in place.
func median(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// compare reports every benchmark's median ns/op against the baseline on
// w and returns false when any shared benchmark regressed by more than
// threshold percent.
func compare(w io.Writer, base, latest []Result, threshold float64) bool {
	baseByKey := make(map[string]Result, len(base))
	for _, r := range base {
		baseByKey[key(r)] = r
	}

	ok := true
	seen := make(map[string]bool, len(latest))
	for _, r := range latest {
		seen[key(r)] = true
		b, found := baseByKey[key(r)]
		if !found {
			fmt.Fprintf(w, "NEW      %-55s %12.0f ns/op (no baseline)\n", key(r), r.NsPerOp)
			continue
		}
		if b.NsPerOp <= 0 {
			continue
		}
		deltaPct := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		verdict := "OK      "
		if deltaPct > threshold {
			verdict = "REGRESS "
			ok = false
		}
		fmt.Fprintf(w, "%s %-55s %12.0f -> %12.0f ns/op (%+.1f%%, limit +%.0f%%; this run %.0f..%.0f over %d)\n",
			verdict, key(r), b.NsPerOp, r.NsPerOp, deltaPct, threshold, r.MinNs, r.MaxNs, r.Runs)
	}
	for _, b := range base {
		if !seen[key(b)] {
			fmt.Fprintf(w, "MISSING  %-55s in latest run (not gated)\n", key(b))
		}
	}
	if !ok {
		fmt.Fprintf(w, "benchjson: median ns/op regression beyond %.0f%% — refresh BENCH_baseline.json only with an explanation in the PR\n", threshold)
	}
	return ok
}

// parseBenchLine parses one "BenchmarkX-8  123  456 ns/op  7 B/op ..."
// line; value/unit pairs after the iteration count become metrics.
func parseBenchLine(line, pkg string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{
		Name:    trimCPUSuffix(fields[0]),
		Package: pkg,
		Iters:   iters,
		Metrics: map[string]float64{},
	}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = val
		} else {
			r.Metrics[unit] = val
		}
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	return r, true
}

// trimCPUSuffix drops the trailing -N GOMAXPROCS marker from a benchmark
// name when present.
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

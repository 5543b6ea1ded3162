// Command perfab is the paired parent-vs-change driver for the repository
// benchmark (perfbench, declared in BENCHMARK.json): it runs one workload
// from a base revision and from the working tree in alternating pairs and
// judges every end-to-end metric by the rule a claimed gain must meet.
//
// The base revision is exported with `git archive` into
// .bench_build/ab/<sha>/, a plain tree that later runs of the same
// revision reuse; the change is the working tree as it stands,
// uncommitted edits included. Each tree builds its own benchmark binary
// from its own sources. Pair i runs both trees at seed SEED+i for the
// same number of seconds, the parent first when i is even and the change
// first when it is odd, so the host's drifts in speed fall on both sides
// alike.
//
// Every run's report (the per-layer block and the result line) is kept in
// .bench_build/ab/logs/<workload>-seed<N>-<parent|change>.txt.
//
// For each end-to-end metric BENCHMARK.json declares, perfab prints every
// pair, each side's median and quartiles, the change's wins (ties count
// for neither side) and the gap between the medians against the parent's
// interquartile range. The change shows a gain only when it wins at least
// nine tenths of the pairs and the gap in its favour is wider than the
// parent's IQR. A metric whose change median is worse than the parent's
// by more than the metric's bound fails. perfab exits 1 when a bound
// fails, a run is incorrect, or the change fails a larger share of its
// operations than the parent; the gain verdict is reported, not enforced.
//
// Usage (or `make ab`):
//
//	go run ./cmd/perfab -base HEAD~1 -workload churn -pairs 10 -seed 301
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// benchmark is the part of BENCHMARK.json perfab reads.
type benchmark struct {
	Command    []string   `json:"command"`
	RunSeconds float64    `json:"run_seconds"`
	EndToEnd   []endToEnd `json:"end_to_end"`
}

// endToEnd is one gated metric: lower or higher is better, and the
// fraction by which the change may be worse before it fails.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the JSON line a benchmark run prints last.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// pair is one parent run and one change run at the same seed.
type pair struct {
	seed           int64
	changeFirst    bool
	parent, change result
}

func main() {
	base := flag.String("base", "", "parent revision to compare the working tree against (required)")
	workload := flag.String("workload", "", "benchmark workload to run (required)")
	pairs := flag.Int("pairs", 10, "parent/change pairs to run")
	seed := flag.Int64("seed", 1, "seed of the first pair; pair i runs at seed+i")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*base, *workload, *pairs, *seed, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfab:", err)
		os.Exit(1)
	}
}

func run(base, workload string, n int, seed0 int64, w io.Writer) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	var bench benchmark
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &bench)
	}
	if err != nil {
		return fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	sha, err := git(root, "rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return err
	}
	parentDir, err := export(root, sha)
	if err != nil {
		return err
	}
	logDir := filepath.Join(root, ".bench_build", "ab", "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(w, "perfab: workload %s, %d pairs of %g s runs, seeds %d-%d\n",
		workload, n, bench.RunSeconds, seed0, seed0+int64(n)-1)
	fmt.Fprintf(w, "parent %.12s (%s), change: the working tree\n\n", sha, parentDir)

	ps := make([]pair, n)
	for i := range ps {
		p := &ps[i]
		p.seed, p.changeFirst = seed0+int64(i), i%2 == 1
		sides := []struct {
			name, dir string
			res       *result
		}{{"parent", parentDir, &p.parent}, {"change", root, &p.change}}
		if p.changeFirst {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, s := range sides {
			log := filepath.Join(logDir, fmt.Sprintf("%s-seed%d-%s.txt", workload, p.seed, s.name))
			if *s.res, err = runOnce(s.dir, log, bench, workload, p.seed); err != nil {
				return fmt.Errorf("pair %d (seed %d): %w", i+1, p.seed, err)
			}
		}
		fmt.Fprintf(os.Stderr, "perfab: pair %d/%d done (seed %d)\n", i+1, n, p.seed)
	}
	if !report(w, bench.EndToEnd, ps) {
		return fmt.Errorf("the change fails a gate (see above)")
	}
	return nil
}

// git runs a git command in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// export unpacks revision sha into .bench_build/ab/<sha> under root, once:
// it unpacks into a temporary directory and renames it into place, so an
// interrupted export is never mistaken for a complete one.
func export(root, sha string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "ab", sha)
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), "export-")
	if err != nil {
		return "", err
	}
	cmd := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", sha, tmp)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(tmp)
		return "", fmt.Errorf("exporting %s: %v: %s", sha, err, out)
	}
	return dir, os.Rename(tmp, dir)
}

// runOnce runs the benchmark command from tree dir, keeps its report in
// log and parses the result line. A run whose correctness gate failed
// still yields its result.
func runOnce(dir, log string, bench benchmark, workload string, seed int64) (result, error) {
	if len(bench.Command) == 0 {
		return result{}, fmt.Errorf("BENCHMARK.json has no command")
	}
	args := slices.Concat(bench.Command[1:], []string{"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(bench.RunSeconds, 'g', -1, 64)})
	cmd := exec.Command(bench.Command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	if err := os.WriteFile(log, stdout.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s: no result line (%v): %s", dir, runErr, tail(stderr.String()))
	}
	return res, nil
}

// tail returns the last few lines of a log.
func tail(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], "\n")
}

// quartiles returns the lower quartile, median and upper quartile of xs,
// interpolated linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(math.Floor(h))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// verdict is one metric judged over all pairs.
type verdict struct {
	wins int
	// gain is how far the change's median is better than the parent's, in
	// the metric's unit (negative when it is worse); iqr is the parent's
	// interquartile range and worse the change median's relative loss
	// against the parent's.
	gain, iqr, worse   float64
	claim, withinBound bool
}

// judge applies the pairing rule to one metric's parent and change values.
func judge(m endToEnd, parent, change []float64) verdict {
	sign := 1.0 // +1 when lower is better
	if m.Better == "higher" {
		sign = -1
	}
	var v verdict
	for i := range parent {
		if sign*(parent[i]-change[i]) > 0 {
			v.wins++
		}
	}
	pq1, pmed, pq3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	v.gain, v.iqr = sign*(pmed-cmed), pq3-pq1
	v.worse = -v.gain / pmed
	v.claim = v.wins*10 >= len(parent)*9 && v.gain > v.iqr
	v.withinBound = v.worse <= m.Bound
	return v
}

// report prints every metric's pairs and verdicts and reports whether
// the change passes every gate.
func report(w io.Writer, metrics []endToEnd, ps []pair) bool {
	ok := true
	var pa, pf, ca, cf int64
	for _, p := range ps {
		pa, pf, ca, cf = pa+p.parent.Attempted, pf+p.parent.Failed, ca+p.change.Attempted, cf+p.change.Failed
		if !p.parent.Correct || !p.change.Correct {
			fmt.Fprintf(w, "seed %d: incorrect run (parent correct=%v, change correct=%v)\n",
				p.seed, p.parent.Correct, p.change.Correct)
			ok = false
		}
	}
	for _, m := range metrics {
		parent, change := make([]float64, len(ps)), make([]float64, len(ps))
		fmt.Fprintf(w, "%s (%s, %s is better, bound %g)\n", m.Name, m.Unit, m.Better, m.Bound)
		fmt.Fprintf(w, "  %-6s %-7s %12s %12s\n", "seed", "first", "parent", "change")
		for i, p := range ps {
			parent[i], change[i] = p.parent.Metrics[m.Name].Value, p.change.Metrics[m.Name].Value
			first := "parent"
			if p.changeFirst {
				first = "change"
			}
			fmt.Fprintf(w, "  %-6d %-7s %12.6g %12.6g\n", p.seed, first, parent[i], change[i])
		}
		for _, side := range []struct {
			name string
			xs   []float64
		}{{"parent", parent}, {"change", change}} {
			q1, med, q3 := quartiles(side.xs)
			fmt.Fprintf(w, "  %s: median %.6g, quartiles %.6g-%.6g\n", side.name, med, q1, q3)
		}
		v := judge(m, parent, change)
		fmt.Fprintf(w, "  change wins %d/%d; median gap %.6g in the change's favour (%.1f%% of the parent's median), parent IQR %.6g\n",
			v.wins, len(ps), v.gain, -100*v.worse, v.iqr)
		claim := "not shown"
		if v.claim {
			claim = "shown"
		}
		fmt.Fprintf(w, "  gain (>= 9/10 wins and gap > parent IQR): %s\n", claim)
		if v.withinBound {
			fmt.Fprintf(w, "  bound: ok\n\n")
		} else {
			fmt.Fprintf(w, "  bound: FAILED, change median %.1f%% worse than the parent's (bound %.0f%%)\n\n",
				100*v.worse, 100*m.Bound)
			ok = false
		}
	}
	fmt.Fprintf(w, "failed operations: parent %d/%d, change %d/%d\n", pf, pa, cf, ca)
	if pa > 0 && ca > 0 && float64(cf)/float64(ca) > float64(pf)/float64(pa) {
		fmt.Fprintln(w, "FAILED: the change fails a larger share of operations than the parent")
		ok = false
	}
	return ok
}

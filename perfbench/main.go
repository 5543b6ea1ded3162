// Command perfbench is the heartshield repository benchmark. It runs one
// named workload against the program built from this checkout, checks the
// program's outputs, and prints every metric by name and unit:
//
//	bash perfbench/run.sh --workload exchange --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json and DESIGN.md next to this file):
//
//   - exchange: one closed loop taking two long-lived sessions (TCP and
//     UDP) in turn, issuing back-to-back protected exchanges.
//   - churn: one closed loop that dials, commits with a ping, sends 16
//     pings and closes, alternating TCP and UDP.
//   - figures: render every registry experiment at Quick, Workers 2.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run that times the calls into
// each layer's public functions from this package's own files. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A failed correctness gate prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"heartshield"
)

const (
	// exchangeSessions is how many long-lived sessions the exchange
	// workload's one closed loop takes in turn: one per transport.
	exchangeSessions = 2
	// setupReps is how many cold set-ups, each in a fresh child process,
	// setup_s is the interquartile mean of.
	setupReps = 16
	// setupGap spaces the cold set-ups out in time. The reference host
	// switches between a fast and a slow regime every few seconds (a cold
	// figures set-up took 3.3 or 5.5 ms depending on when it ran), so
	// set-ups run back to back all land in one regime.
	setupGap = 150 * time.Millisecond
	// prefaultBytes is how far a set-up child grows its heap before the
	// timed set-up.
	prefaultBytes = 32 << 20
)

// secret is the pairing secret the in-process server and its clients share.
var secret = []byte("perfbench-pairing-secret")

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named benchmark input shape.
type workload struct {
	name string
	// op names the unit of work and rate its throughput in the
	// human-readable report.
	op, rate string
	// setup builds everything the timed window needs: server, listeners,
	// warm caches, dialled sessions. It is what setup_s times.
	setup func(seed int64) (runner, error)
}

// runner is a set-up workload.
type runner interface {
	// measure runs the workload until deadline, recording spans into tr
	// when it is non-nil.
	measure(deadline time.Time, tr *tracer) (*leg, error)
	// check verifies the program's outputs from the measured legs, outside
	// the timed window.
	check() error
	close()
}

// leg is the outcome of one timed window.
type leg struct {
	// op holds the latency of every completed operation of the workload's
	// unit of work: an exchange, a whole session, a registry pass.
	op timings
	// ops counts completed units of work; wall is the timed window.
	ops  int64
	wall time.Duration
	// attempted and failed count the workload's operations; simulated
	// channel losses are not failures (they are checked exactly instead).
	attempted, failed int64
	// requests counts client requests sent; server is the server counter
	// delta over the leg and clientRetransmits the datagram re-sends
	// (serving workloads only).
	requests          int64
	server            heartshield.ServerMetrics
	clientRetransmits uint64
	// report lists the workload's own named figures for the human-readable
	// block printed before the JSON line.
	report []string
}

var workloads = []workload{
	{name: "exchange", op: "exchange", rate: "exchanges_per_s", setup: setupExchange},
	{name: "churn", op: "session", rate: "sessions_per_s", setup: setupChurn},
	{name: "figures", op: "figures", rate: "passes_per_s", setup: setupFigures},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: exchange, churn, figures, or all")
	seed := flag.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer profile instead of the end-to-end run")
	setupOnly := flag.Bool("setup-only", false, "run one cold set-up, print its seconds and exit (used for setup_s)")
	flag.Parse()

	if *name == "all" && !*setupOnly {
		os.Exit(runAll(*seed, *seconds, *trace == 1))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want exchange, churn, figures or all)\n", *name)
		os.Exit(2)
	}
	if *setupOnly {
		if err := setupOnce(w, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in turn and prints one merged result with
// workload-prefixed metric names.
func runAll(seed int64, seconds float64, traced bool) int {
	merged := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		res, err := runWorkload(w, seed, time.Duration(seconds*float64(time.Second)), traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		if res == nil {
			return 1
		}
		merged.Correct = merged.Correct && res.Correct
		merged.Attempted += res.Attempted
		merged.Failed += res.Failed
		for k, v := range res.Metrics {
			merged.Metrics[w.name+"."+k] = v
		}
	}
	printResult(merged)
	if !merged.Correct {
		return 1
	}
	return 0
}

// setupOnce times one cold set-up and tears it down: the child-process
// half of setup_s. The heap is grown and touched first, so the kernel's
// first-touch page faults, whose cost moved with the host's memory load,
// are not timed; the program's own allocation and work are.
func setupOnce(w workload, seed int64) error {
	prefaultHeap()
	t0 := time.Now()
	r, err := w.setup(seed)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	r.close()
	fmt.Println(strconv.FormatFloat(elapsed.Seconds(), 'g', -1, 64))
	return nil
}

// prefaultHeap grows the Go heap by prefaultBytes, touches every page and
// frees it again; the runtime keeps the pages for the set-up to reuse.
func prefaultHeap() {
	b := make([]byte, prefaultBytes)
	for i := 0; i < len(b); i += os.Getpagesize() {
		b[i] = 1
	}
	runtime.KeepAlive(b)
	runtime.GC()
}

// coldSetups runs n cold set-ups setupGap apart, each in a fresh child
// process so process-wide caches start empty, and adds their times to t.
func coldSetups(w workload, seed int64, n int, t *timings) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("setup_s: %w", err)
	}
	for i := 0; i < n; i++ {
		time.Sleep(setupGap)
		cmd := exec.Command(exe, "--setup-only", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("setup_s child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return fmt.Errorf("setup_s child output %q: %w", out, err)
		}
		t.add(time.Duration(v * float64(time.Second)))
	}
	return nil
}

// runWorkload runs one workload: the end-to-end run, or the traced
// per-layer run. A correctness failure returns the result with
// Correct=false alongside the error.
func runWorkload(w workload, seed int64, window time.Duration, traced bool) (*result, error) {
	if traced {
		r, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		defer r.close()
		return runTraced(w, r, seed, window)
	}
	// Half the cold set-ups run before the timed window and half after
	// it, so setup_s samples the host across the run rather than in one
	// burst.
	var setups timings
	if err := coldSetups(w, seed, setupReps/2, &setups); err != nil {
		return nil, err
	}
	r, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	rss := startRSS()
	lg, err := r.measure(time.Now().Add(window), nil)
	rssMB := rss.median()
	if err != nil {
		r.close()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	printReport(w, lg)
	checkErr := r.check()
	r.close()
	if err := coldSetups(w, seed, setupReps-setupReps/2, &setups); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: lg.attempted, Failed: lg.failed}
	res.Metrics = endToEnd(lg, setups.iqm().Seconds(), rssMB)
	if checkErr != nil {
		res.Correct = false
		return res, fmt.Errorf("%s correctness: %w", w.name, checkErr)
	}
	if lg.failed > 0 {
		res.Correct = false
		return res, fmt.Errorf("%s: %d of %d requests failed", w.name, lg.failed, lg.attempted)
	}
	return res, nil
}

// endToEnd derives the end-to-end metrics of one untraced leg.
func endToEnd(lg *leg, setupS, rssMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":   {setupS, "s"},
		"op_iqm_ms": {lg.op.iqm().Seconds() * 1e3, "ms"},
		"rss_mb":    {rssMB, "MB"},
	}
}

// printReport writes the human-readable block: the workload's own named
// figures, the median and the highest percentile that keeps tailBeyond
// samples beyond it.
func printReport(w workload, lg *leg) {
	all := &lg.op
	q := all.tailQuantile()
	note := fmt.Sprintf("p%g", q*100)
	switch {
	case all.count()-rank(q, all.count()) < tailBeyond:
		note += fmt.Sprintf(": too few samples for any percentile to keep %d beyond it", tailBeyond)
	case q < 0.99:
		note += fmt.Sprintf(": the highest percentile with >=%d samples beyond it", tailBeyond)
	}
	fmt.Printf("%s: n=%d\n", w.name, all.count())
	fmt.Printf("  %s_iqm_ms=%.4f ms (p50 %.4f ms)\n", w.op, all.iqm().Seconds()*1e3, all.quantile(0.5).Seconds()*1e3)
	fmt.Printf("  %s_tail_ms=%.4f ms (mean of the slowest %g%%; %s %.4f ms)\n", w.op,
		all.tailMean().Seconds()*1e3, tailShare*100, note, all.quantile(q).Seconds()*1e3)
	fmt.Printf("  %s=%.4f 1/s\n", w.rate, float64(lg.ops)/lg.wall.Seconds())
	for _, line := range lg.report {
		fmt.Printf("  %s\n", line)
	}
	fmt.Printf("  failed_frac=%g (failed %d / attempted %d)\n",
		float64(lg.failed)/float64(max(lg.attempted, 1)), lg.failed, lg.attempted)
}

func printResult(res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// rssEvery is the resident-set sampling period.
const rssEvery = 20 * time.Millisecond

// rssSampler samples this process's resident set every rssEvery. The
// median over a timed window is steadier than the peak, which moves with
// where the garbage collector's cycles happen to fall.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		var mb []float64
		for {
			if v, err := residentMB(); err == nil {
				mb = append(mb, v)
			}
			select {
			case <-s.stop:
				s.done <- mb
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median sample in MiB.
func (s *rssSampler) median() float64 {
	close(s.stop)
	mb := <-s.done
	if len(mb) == 0 {
		return 0
	}
	sort.Float64s(mb)
	return mb[len(mb)/2]
}

// residentMB reads this process's resident set in MiB.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"heartshield"
	"heartshield/internal/testbed"
)

const (
	// figuresWorkers is the experiment engine's worker count.
	figuresWorkers = 2
	// goldenSeed is the seed testdata/golden was recorded at.
	goldenSeed = 1
	// aliasName renders exactly what aliasOf renders (one runner produces
	// both figures), so a pass renders it once.
	aliasName, aliasOf = "fig10", "fig9"
)

// figuresRig is the figures workload: render every registry experiment
// once per pass at Quick, Workers 2, through the public experiment API.
type figuresRig struct {
	seed    int64
	entries []heartshield.ExperimentInfo
	// golden holds testdata/golden at goldenSeed, keyed by experiment.
	golden map[string]string
	// first holds the first pass's renders; every later pass must match.
	first    map[string]string
	mismatch []string
}

// setupFigures resolves the registry, loads the goldens when the seed is
// the golden seed, and warms the physics plan and template caches.
func setupFigures(seed int64) (runner, error) {
	r := &figuresRig{seed: seed}
	for _, e := range heartshield.Experiments() {
		if e.Name != aliasName {
			r.entries = append(r.entries, e)
		}
	}
	if seed == goldenSeed {
		r.golden = make(map[string]string)
		for _, e := range heartshield.Experiments() {
			b, err := os.ReadFile(filepath.Join("testdata", "golden", e.Name+".txt"))
			if err != nil {
				return nil, fmt.Errorf("golden: %w", err)
			}
			r.golden[e.Name] = string(b)
		}
	}
	sc := testbed.NewScenario(testbed.Options{Seed: seed})
	sc.CalibrateShieldRSSI()
	return r, nil
}

func (r *figuresRig) config(workers int) heartshield.ExperimentConfig {
	return heartshield.ExperimentConfig{Seed: r.seed, Quick: true, Workers: workers}
}

// pass renders every experiment once, recording one span per render
// under prefix, and returns the renders.
func (r *figuresRig) pass(workers int, tr *tracer, prefix string, req int64) map[string]string {
	out := make(map[string]string, len(r.entries))
	for _, e := range r.entries {
		t := time.Now()
		out[e.Name] = e.Run(r.config(workers)).Render()
		tr.record(prefix+e.Name, "", req, t, time.Now())
	}
	return out
}

// measure renders whole-registry passes until deadline (at least one).
func (r *figuresRig) measure(deadline time.Time, tr *tracer) (*leg, error) {
	start := time.Now()
	lg := &leg{}
	for n := int64(0); n == 0 || time.Now().Before(deadline); n++ {
		t := time.Now()
		out := r.pass(figuresWorkers, tr, "figures.", n)
		end := time.Now()
		lg.op.add(end.Sub(t))
		lg.ops++
		lg.attempted += int64(len(out))
		if r.first == nil {
			r.first = out
			continue
		}
		for name, got := range out {
			if got != r.first[name] {
				r.mismatch = append(r.mismatch, name)
			}
		}
	}
	lg.wall = time.Since(start)
	lg.report = []string{
		fmt.Sprintf("figures_s=%.4f s (median of %d passes of %d experiments)",
			lg.op.quantile(0.5).Seconds(), lg.ops, len(r.entries)),
	}
	return lg, nil
}

// check compares the first pass with testdata/golden at the golden seed
// and applies the paper's shape checks at any other seed; every pass must
// equal the first.
func (r *figuresRig) check() error {
	var errs []error
	for _, name := range r.mismatch {
		errs = append(errs, fmt.Errorf("%s: a later pass rendered different output", name))
	}
	if r.golden != nil {
		for name, want := range r.golden {
			got := r.first[name]
			if name == aliasName {
				got = r.first[aliasOf]
			}
			if got != want {
				errs = append(errs, fmt.Errorf("%s: render differs from testdata/golden/%s.txt", name, name))
			}
		}
		return errors.Join(errs...)
	}
	if err := checkFig9(r.first["fig9"]); err != nil {
		errs = append(errs, err)
	}
	if err := checkFig11(r.first["fig11"]); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (r *figuresRig) close() {}

// checkFig9 requires the eavesdropper's BER to sit near 0.5: the jammed
// response carries no information. The mean over locations must lie in
// 0.47..0.53 (0.496..0.503 over seeds 1..300), and every location's mean
// in 0.35..0.65. A Quick run has about 8 trials per location, and now and
// then the eavesdropper decodes one of them: at seed 40, location 2 read
// 0.432 from one such trial. Three decoded trials at one location fail.
func checkFig9(render string) error {
	rows := tableRows(render, "meanBER")
	if len(rows) != len(testbed.Locations) {
		return fmt.Errorf("fig9: %d location rows, want %d", len(rows), len(testbed.Locations))
	}
	var sum float64
	for _, f := range rows {
		ber, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil || ber < 0.35 || ber > 0.65 {
			return fmt.Errorf("fig9: %s mean BER %s, want 0.35..0.65", f[0], f[len(f)-1])
		}
		sum += ber
	}
	if mean := sum / float64(len(rows)); mean < 0.47 || mean > 0.53 {
		return fmt.Errorf("fig9: mean BER over locations %.3f, want 0.47..0.53", mean)
	}
	return nil
}

// checkFig11 requires the shield to stop replayed interrogations: the
// shield-on success rate stays near 0 everywhere, while shield-off
// attacks succeed at close range.
func checkFig11(render string) error {
	rows := tableRows(render, "P(on)")
	if len(rows) == 0 {
		return errors.New("fig11: no location rows")
	}
	var sumOn, sumOff float64
	for _, f := range rows {
		off, err1 := strconv.ParseFloat(f[len(f)-2], 64)
		on, err2 := strconv.ParseFloat(f[len(f)-1], 64)
		if err := errors.Join(err1, err2); err != nil {
			return fmt.Errorf("fig11: row %q: %w", strings.Join(f, " "), err)
		}
		if on > 0.25 {
			return fmt.Errorf("fig11: %s shield-on success %.2f, want <= 0.25", f[0], on)
		}
		sumOn += on
		sumOff += off
	}
	n := float64(len(rows))
	if sumOn/n > 0.05 || sumOff/n < 0.3 {
		return fmt.Errorf("fig11: mean success shield-on %.3f (want <= 0.05), shield-off %.3f (want >= 0.3)",
			sumOn/n, sumOff/n)
	}
	return nil
}

// tableRows returns the whitespace-split "loc..." rows that follow the
// header line containing header, up to the first blank line.
func tableRows(render, header string) [][]string {
	var rows [][]string
	in := false
	for _, line := range strings.Split(render, "\n") {
		switch {
		case strings.Contains(line, header):
			in = true
		case in && strings.TrimSpace(line) == "":
			return rows
		case in && strings.HasPrefix(line, "loc"):
			rows = append(rows, strings.Fields(line))
		}
	}
	return rows
}

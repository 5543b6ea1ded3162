package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"heartshield/internal/loadgen"
)

// span is one timed call into a layer, recorded by this package around
// the program's public functions.
type span struct {
	Name string `json:"name"`
	// Req is shared by every span of one request (one exchange, one
	// session, one experiment render).
	Req int64 `json:"req"`
	// Parent names the span that caused this one; empty for a root.
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the length of a traced run. A nil
// tracer records nothing, which is how the untraced legs run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds one span. Safe for concurrent use.
func (t *tracer) record(name, parent string, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Req: req, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// hists aggregates span durations by name.
func (t *tracer) hists() map[string]*loadgen.Hist {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]*loadgen.Hist)
	for _, s := range t.spans {
		h := out[s.Name]
		if h == nil {
			h = new(loadgen.Hist)
			out[s.Name] = h
		}
		h.RecordValue(s.End - s.Start)
	}
	return out
}

// dump writes the spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// spanStats reads per-layer figures from aggregated spans. Per-call times
// are means: exact, and additive, so phases sum to the whole.
type spanStats map[string]*loadgen.Hist

// meanNS is the mean duration of the named span in nanoseconds; it fails
// when the span was never recorded, so a probe that silently stopped
// running cannot report a zero.
func (s spanStats) meanNS(name string) (float64, error) {
	h := s[name]
	if h == nil || h.Count() == 0 {
		return 0, fmt.Errorf("no %q spans recorded", name)
	}
	return h.Mean(), nil
}

// totalNS is the summed duration of the named span.
func (s spanStats) totalNS(name string) float64 {
	h := s[name]
	if h == nil {
		return 0
	}
	return h.Mean() * float64(h.Count())
}

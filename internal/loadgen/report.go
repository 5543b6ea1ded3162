package loadgen

import (
	"encoding/json"
	"fmt"

	"heartshield"
)

// reportSchema versions the fleet-report JSON; bump on any field change
// so downstream tooling (CI gates, trend plots) fails loudly instead of
// silently misreading.
const reportSchema = "shieldtest-fleet-report/v3"

// ReportConfig echoes the run configuration into the report so a report
// file is self-describing.
type ReportConfig struct {
	Seed          int64   `json:"seed"`
	Sessions      int     `json:"sessions"`
	Workers       int     `json:"workers"`
	OpsPerSession int     `json:"ops_per_session"`
	Mix           Mix     `json:"mix"`
	BatchSize     int     `json:"batch_size"`
	Experiment    string  `json:"experiment"`
	DurationSec   float64 `json:"duration_sec"`
	OpenBarrier   bool    `json:"open_barrier"`
}

// SessionStats is the client-side session ledger.
type SessionStats struct {
	Opened        uint64            `json:"opened"`
	Survived      uint64            `json:"survived"`
	Failed        uint64            `json:"failed"`
	FailReasons   map[string]uint64 `json:"fail_reasons,omitempty"`
	CloseErrors   uint64            `json:"close_errors"`
	MaxConcurrent int64             `json:"max_concurrent"`
}

// Throughput is the wall-clock rates block.
type Throughput struct {
	ElapsedSec     float64 `json:"elapsed_sec"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	OpsPerSec      float64 `json:"ops_per_sec"`
}

// DaemonReport is one daemon's identity plus its final metrics dump.
type DaemonReport struct {
	ID      int                       `json:"id"`
	Metrics heartshield.ServerMetrics `json:"metrics"`
}

// Check is one client-vs-server reconciliation row.
type Check struct {
	Name   string `json:"name"`
	Client uint64 `json:"client"`
	Server uint64 `json:"server"`
	OK     bool   `json:"ok"`
}

// Reconciliation compares the client's ledger against the summed daemon
// metrics. The exact-equality checks only hold when no session failed
// mid-flight (a failed op may or may not have executed server-side), so
// Checked records whether the comparison was meaningful.
type Reconciliation struct {
	Checked bool    `json:"checked"`
	OK      bool    `json:"ok"`
	Checks  []Check `json:"checks"`
}

// Report is the machine-readable fleet report: everything a CI gate or
// a trend plot needs from one shieldtest run.
type Report struct {
	Schema    string       `json:"schema"`
	Config    ReportConfig `json:"config"`
	Endpoints []Endpoint   `json:"endpoints"`
	Sessions  SessionStats `json:"sessions"`
	Ops       opCounts     `json:"ops"`
	Latency   struct {
		Open LatencySummary `json:"open"`
		Op   LatencySummary `json:"op"`
	} `json:"latency"`
	Throughput     Throughput     `json:"throughput"`
	Daemons        []DaemonReport `json:"daemons"`
	Reconciliation Reconciliation `json:"reconciliation"`
}

// Reconcile fills the Daemons and Reconciliation blocks from the final
// per-daemon metrics dumps. Client-observed op counts must equal the
// summed server counters exactly — the determinism contract means the
// only legal divergence is a session that failed mid-op, so the exact
// checks are gated on Failed == 0. Each check is named after the server
// counter it reads.
func (r *Report) Reconcile(daemons []DaemonReport) {
	r.Daemons = daemons
	checks := []Check{
		{Name: "sessions", Client: r.Sessions.Opened},
		// The server counts each exchange it executed: singles, batched
		// items, and the leading items of a batch the simulated channel
		// aborted mid-way (sim-failed singles were never counted).
		{Name: "exchanges", Client: r.Ops.Exchanges + r.Ops.BatchedExchanges + r.Ops.PartialBatchExchanges},
		{Name: "batches", Client: r.Ops.Batches},
		{Name: "pings", Client: r.Ops.Pings},
		{Name: "experiments", Client: r.Ops.Experiments},
		{Name: "attacks", Client: 0},
	}
	rec := Reconciliation{Checked: r.Sessions.Failed == 0, OK: true}
	for i := range checks {
		for _, d := range daemons {
			checks[i].Server += d.Metrics.Get(checks[i].Name)
		}
		checks[i].OK = checks[i].Client == checks[i].Server
		if !checks[i].OK {
			rec.OK = false
		}
	}
	rec.Checks = checks
	if !rec.Checked {
		// Divergence is expected when sessions failed; don't report a
		// misleading verdict either way.
		rec.OK = false
	}
	r.Reconciliation = rec
}

// Normalize zeroes every timing- and transport-dependent field so two
// runs at the same seed produce byte-identical JSON: wall-clock rates,
// latency digests, retransmission counters (legal under CPU saturation),
// endpoint ports, and every daemon counter but the reconciled ones. The
// op and session ledgers — the deterministic part — are left untouched.
func (r *Report) Normalize() {
	r.Latency.Open = LatencySummary{Count: r.Latency.Open.Count}
	r.Latency.Op = LatencySummary{Count: r.Latency.Op.Count}
	r.Throughput = Throughput{}
	// How many sessions happened to overlap is pure scheduling.
	r.Sessions.MaxConcurrent = 0
	r.Ops.ClientRetransmits = 0
	r.Ops.ClientTimeouts = 0
	// Progress frames are fire-and-forget: a lossy transport may drop
	// any number of them without affecting the experiment's result.
	r.Ops.ProgressFrames = 0
	for i := range r.Endpoints {
		r.Endpoints[i].Addr = ""
	}
	for i := range r.Daemons {
		var kept heartshield.ServerMetrics
		for _, c := range r.Reconciliation.Checks {
			kept.Set(c.Name, r.Daemons[i].Metrics.Get(c.Name))
		}
		r.Daemons[i].Metrics = kept
	}
}

// MarshalIndent renders the report as stable indented JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("loadgen: marshal fleet report: %w", err)
	}
	return append(b, '\n'), nil
}

// Command shieldtest is the fleet-scale load harness: it spawns N shieldd
// daemon processes (TCP and UDP transports), drives M pooled client
// workers through thousands of concurrent sessions with a configurable
// deterministic op mix, and emits one machine-readable fleet report —
// per-session open and per-op latency quantiles from mergeable HDR-style
// histograms, sessions/sec and ops/sec, and every client-side counter
// reconciled exactly against the daemons' own metrics dumps.
//
// Usage:
//
//	shieldtest -daemons 2 -sessions 1000 -workers 1000 -barrier -ops 2 -mix exchange=1,ping=1
//	shieldtest -daemons 2 -duration 45s -workers 64 -ops 16 -o fleet.json
//	shieldtest -inproc -daemons 1 -sessions 64 -workers 16
//
// Gates (for CI): -min-concurrent fails the run unless that many sessions
// were provably open at once, -min-sessions-per-sec floors throughput,
// and -max-failed caps failed sessions.
//
// Each daemon is this same binary re-exec'd with the hidden -daemon flag:
// the child serves ephemeral localhost ports, announces them as an
// "ADDRS {json}" stdout line, answers "METRICS" requests on stdin with
// "METRICS {json}" dumps, and exits when stdin closes — so daemon metrics
// stay out of the session counters and reconciliation is exact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"

	"heartshield"
	"heartshield/internal/loadgen"
)

func main() {
	var (
		daemonMode = flag.Bool("daemon", false, "run as a fleet daemon child (internal)")
		daemons    = flag.Int("daemons", 2, "shieldd daemon processes to spawn")
		inproc     = flag.Bool("inproc", false, "host the daemons in-process instead of spawning children")
		transports = flag.String("transports", "tcp,udp", "comma-separated transports each daemon serves")
		secret     = flag.String("secret", "shieldtest", "pairing secret shared with the daemons")
		seed       = flag.Int64("seed", 1, "run seed; every session's sim seed and op stream derive from it")

		sessions = flag.Int("sessions", 64, "total sessions (fixed-count mode)")
		workers  = flag.Int("workers", 16, "client worker-pool size (= concurrency ceiling)")
		ops      = flag.Int("ops", 4, "mix-drawn ops per session after the opening ping")
		mixFlag  = flag.String("mix", loadgen.DefaultMix.String(), "op mix weights")
		batch    = flag.Int("batch", 8, "exchanges per BATCH op")
		expName  = flag.String("experiment", "fig7", "experiment EXPERIMENT ops run (always -quick)")
		duration = flag.Duration("duration", 0, "soak mode: cycle sessions until this deadline instead of -sessions")
		barrier  = flag.Bool("barrier", false, "hold every session open until all -sessions are open (requires -workers == -sessions)")
		openConc = flag.Int("open-concurrency", 64, "cap on simultaneous dial+open handshakes (0 = unlimited)")

		retryTimeout = flag.Duration("retry-timeout", 2*time.Second, "initial datagram retransmission timeout")
		maxRetries   = flag.Int("max-retries", 8, "datagram retransmissions per request")

		maxSessions = flag.Int("max-sessions", 0, "per-daemon session bound (0 = auto: workers + 8)")
		expWorkers  = flag.Int("exp-workers", runtime.NumCPU(), "per-daemon experiment worker cap")

		minConcurrent = flag.Int64("min-concurrent", 0, "gate: fail unless this many sessions were open at once")
		minRate       = flag.Float64("min-sessions-per-sec", 0, "gate: fail below this sessions/sec floor")
		maxFailed     = flag.Int64("max-failed", -1, "gate: fail above this many failed sessions (-1 disables)")

		output = flag.String("o", "-", "fleet report JSON destination (- = stdout)")
	)
	flag.Parse()

	trs := strings.Split(*transports, ",")
	for i := range trs {
		trs[i] = strings.TrimSpace(trs[i])
	}

	if *daemonMode {
		os.Exit(runDaemonChild(trs, []byte(*secret), *maxSessions, *expWorkers))
	}

	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	if *maxSessions == 0 {
		*maxSessions = *workers + 8
	}

	var fleet []loadgen.Daemon
	if *inproc {
		fleet, err = loadgen.StartInprocFleet(*daemons, trs, heartshield.ServeOptions{
			Secret:            []byte(*secret),
			MaxSessions:       *maxSessions,
			ExperimentWorkers: *expWorkers,
		})
	} else {
		fleet, err = startProcFleet(*daemons, trs, *secret, *maxSessions, *expWorkers)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer loadgen.CloseFleet(fleet)

	cfg := loadgen.Config{
		Seed:            *seed,
		Secret:          []byte(*secret),
		Sessions:        *sessions,
		Workers:         *workers,
		OpsPerSession:   *ops,
		Mix:             mix,
		BatchSize:       *batch,
		Experiment:      *expName,
		Duration:        *duration,
		OpenBarrier:     *barrier,
		OpenConcurrency: *openConc,
		RetryTimeout:    *retryTimeout,
		MaxRetries:      *maxRetries,
	}
	rep, err := loadgen.RunFleet(cfg, fleet)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	b, err := rep.MarshalIndent()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	if *output == "-" {
		os.Stdout.Write(b)
	} else if err := os.WriteFile(*output, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "shieldtest: %d daemons, %d endpoints: opened=%d survived=%d failed=%d maxConcurrent=%d %.1f sessions/s %.1f ops/s\n",
		len(fleet), len(rep.Endpoints), rep.Sessions.Opened, rep.Sessions.Survived,
		rep.Sessions.Failed, rep.Sessions.MaxConcurrent,
		rep.Throughput.SessionsPerSec, rep.Throughput.OpsPerSec)
	fmt.Fprintf(os.Stderr, "shieldtest: open %s\n", rep.Latency.Open)
	fmt.Fprintf(os.Stderr, "shieldtest: op   %s\n", rep.Latency.Op)

	ok := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "shieldtest: GATE FAILED: "+format+"\n", args...)
		ok = false
	}
	if *minConcurrent > 0 && rep.Sessions.MaxConcurrent < *minConcurrent {
		fail("max concurrent sessions %d < floor %d", rep.Sessions.MaxConcurrent, *minConcurrent)
	}
	if *minRate > 0 && rep.Throughput.SessionsPerSec < *minRate {
		fail("%.2f sessions/sec < floor %.2f", rep.Throughput.SessionsPerSec, *minRate)
	}
	if *maxFailed >= 0 && int64(rep.Sessions.Failed) > *maxFailed {
		fail("%d failed sessions > ceiling %d (%v)", rep.Sessions.Failed, *maxFailed, rep.Sessions.FailReasons)
	}
	if *maxFailed == 0 && !(rep.Reconciliation.Checked && rep.Reconciliation.OK) {
		fail("client/daemon counters did not reconcile: %+v", rep.Reconciliation.Checks)
	}
	if !ok {
		os.Exit(1)
	}
}

// runDaemonChild is the hidden -daemon mode: serve on ephemeral localhost
// ports, announce them on stdout, answer METRICS requests on stdin, exit
// on stdin EOF (the parent closing our pipe is the shutdown signal).
func runDaemonChild(transports []string, secret []byte, maxSessions, expWorkers int) int {
	if maxSessions == 0 {
		maxSessions = 64
	}
	srv, err := heartshield.NewServer(heartshield.ServeOptions{
		Secret:            secret,
		MaxSessions:       maxSessions,
		ExperimentWorkers: expWorkers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon error:", err)
		return 1
	}
	var eps []loadgen.Endpoint
	for _, tr := range transports {
		switch tr {
		case "tcp":
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintln(os.Stderr, "daemon error:", err)
				return 1
			}
			eps = append(eps, loadgen.Endpoint{Transport: "tcp", Addr: l.Addr().String()})
			go srv.Serve(l)
		case "udp":
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintln(os.Stderr, "daemon error:", err)
				return 1
			}
			eps = append(eps, loadgen.Endpoint{Transport: "udp", Addr: pc.LocalAddr().String()})
			go srv.ServePacket(pc)
		default:
			fmt.Fprintf(os.Stderr, "daemon error: unknown transport %q\n", tr)
			return 1
		}
	}
	b, err := json.Marshal(eps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon error:", err)
		return 1
	}
	fmt.Printf("ADDRS %s\n", b)

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "METRICS" {
			continue
		}
		m, err := json.Marshal(srv.Metrics())
		if err != nil {
			fmt.Fprintln(os.Stderr, "daemon error:", err)
			return 1
		}
		fmt.Printf("METRICS %s\n", m)
	}
	return 0 // stdin EOF: parent is done with us
}

// procDaemon is one spawned shieldtest -daemon child.
type procDaemon struct {
	id  int
	cmd *exec.Cmd
	w   io.WriteCloser
	r   *bufio.Scanner
	mu  sync.Mutex
	eps []loadgen.Endpoint
}

// startProcFleet spawns n daemon children by re-exec'ing this binary
// with -daemon (os.Executable survives `go run` and test binaries).
func startProcFleet(n int, transports []string, secret string, maxSessions, expWorkers int) ([]loadgen.Daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	fleet := make([]loadgen.Daemon, 0, n)
	for i := 0; i < n; i++ {
		d, err := startProcDaemon(self, i, transports, secret, maxSessions, expWorkers)
		if err != nil {
			loadgen.CloseFleet(fleet)
			return nil, err
		}
		fleet = append(fleet, d)
	}
	return fleet, nil
}

func startProcDaemon(self string, id int, transports []string, secret string, maxSessions, expWorkers int) (*procDaemon, error) {
	cmd := exec.Command(self,
		"-daemon",
		"-transports", strings.Join(transports, ","),
		"-secret", secret,
		"-max-sessions", fmt.Sprint(maxSessions),
		"-exp-workers", fmt.Sprint(expWorkers),
	)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &procDaemon{
		id:  id,
		cmd: cmd,
		w:   stdin,
		r:   bufio.NewScanner(stdout),
	}
	// First line must be the ADDRS announcement.
	line, err := d.readPrefixed("ADDRS ")
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("daemon %d: %w", id, err)
	}
	if err := json.Unmarshal([]byte(line), &d.eps); err != nil {
		d.Close()
		return nil, fmt.Errorf("daemon %d: bad ADDRS: %w", id, err)
	}
	for i := range d.eps {
		d.eps[i].Daemon = id
	}
	return d, nil
}

// readPrefixed scans stdout lines until one carries the prefix, skipping
// any daemon chatter, and returns the rest of that line.
func (d *procDaemon) readPrefixed(prefix string) (string, error) {
	for d.r.Scan() {
		if rest, ok := strings.CutPrefix(d.r.Text(), prefix); ok {
			return rest, nil
		}
	}
	if err := d.r.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("daemon exited before %q line", strings.TrimSpace(prefix))
}

func (d *procDaemon) ID() int                       { return d.id }
func (d *procDaemon) Endpoints() []loadgen.Endpoint { return d.eps }

func (d *procDaemon) Metrics() (heartshield.ServerMetrics, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var m heartshield.ServerMetrics
	if _, err := fmt.Fprintln(d.w, "METRICS"); err != nil {
		return m, err
	}
	line, err := d.readPrefixed("METRICS ")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		return m, err
	}
	return m, nil
}

func (d *procDaemon) Close() error {
	d.w.Close() // stdin EOF tells the child to exit
	werr := make(chan error, 1)
	go func() { werr <- d.cmd.Wait() }()
	select {
	case err := <-werr:
		return err
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		return <-werr
	}
}

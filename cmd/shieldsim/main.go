// Command shieldsim regenerates the paper's tables and figures on the
// simulated testbed and prints the same rows/series the paper reports —
// locally, or remotely against a running shieldd session server.
//
// Usage:
//
//	shieldsim -list
//	shieldsim -run fig7
//	shieldsim -run all -quick
//	shieldsim -run fig11 -trials 100 -seed 7
//	shieldsim -server 127.0.0.1:7700 -secret swordfish -run fig7 -quick
//	shieldsim -server 127.0.0.1:7700 -secret swordfish -batch 64 -session-metrics
//	shieldsim -server 127.0.0.1:7701 -transport udp -secret swordfish -batch 64
//	shieldsim -transport udp -impair "drop=0.1,dup=0.05,reorder=0.05" -exchanges 64
//	shieldsim -impair "drop=0.05,partition=500ms:2s" -exchanges 64
//	shieldsim -impair "up=drop:0.3,down=delay:2ms+jitter:1ms" -exchanges 32
//
// -transport udp dials the server's datagram listener instead of TCP.
// -impair (no -server) runs a self-contained chaos session: an
// in-process server and a datagram client joined by the deterministic
// faultnet impairment layer, reporting retransmit and securelink window
// activity — the CLI face of the chaos test wall. On top of the
// probability/latency keys it takes partition=start:dur outage windows
// (repeatable; offsets from session establishment) and up=/down=
// per-direction overrides written as colon pairs joined by '+'.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"heartshield"
	"heartshield/internal/faultnet"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list available experiments")
		run       = flag.String("run", "", "experiment name, or 'all'")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		trials    = flag.Int("trials", 0, "per-point trials (0 = experiment default)")
		quick     = flag.Bool("quick", false, "reduced trial counts")
		workers   = flag.Int("workers", runtime.NumCPU(), "parallel scenario workers (output is identical for any value)")
		server    = flag.String("server", "", "run experiments remotely on this shieldd address")
		secret    = flag.String("secret", "", "pairing secret for -server")
		batch     = flag.Int("batch", 0, "with -server: run this many protected exchanges as BATCH-EXCHANGE frames")
		sessMet   = flag.Bool("session-metrics", false, "with -server: print the session's STATUS-METRICS before closing")
		transport = flag.String("transport", "tcp", "with -server: tcp or udp (datagram sessions with retransmission)")
		impair    = flag.String("impair", "", "run a self-contained impaired datagram session: drop=P,dup=P,reorder=P,corrupt=P,delay=D,jitter=D,partition=start:dur,up=k:v+k:v,down=k:v+k:v")
		impSeed   = flag.Int64("impair-seed", 1, "faultnet impairment schedule seed (deterministic per seed)")
		exchanges = flag.Int("exchanges", 64, "with -impair: individual protected exchanges to drive through the impaired link")
		pipeline  = flag.Bool("pipeline", false, "with -impair: keep a full send window of exchanges in flight (selective-repeat pipelining) instead of one round trip at a time")
	)
	flag.Parse()

	if *impair != "" {
		if *server != "" {
			fmt.Fprintln(os.Stderr, "error: -impair runs in-process; drop -server")
			os.Exit(2)
		}
		runImpaired(*impair, *impSeed, *seed, *exchanges, *pipeline)
		return
	}

	if *list || (*run == "" && *batch == 0) {
		fmt.Println("experiments (use -run <name> or -run all):")
		for _, e := range heartshield.Experiments() {
			fmt.Printf("  %-18s %s\n", e.Name, e.Title)
		}
		if *run == "" && *batch == 0 && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := heartshield.ExperimentConfig{Seed: *seed, Trials: *trials, Quick: *quick, Workers: *workers}
	names := []string{*run}
	if *run == "all" {
		names = names[:0]
		seen := map[string]bool{}
		for _, e := range heartshield.Experiments() {
			if e.Name == "fig10" { // measured jointly with fig9
				continue
			}
			if !seen[e.Name] {
				names = append(names, e.Name)
				seen[e.Name] = true
			}
		}
	}

	var remote *heartshield.RemoteSimulation
	if *server != "" {
		var err error
		opt := heartshield.DialOptions{SimOptions: heartshield.SimOptions{Seed: *seed}}
		switch *transport {
		case "tcp":
			remote, err = heartshield.Dial(*server, []byte(*secret), opt)
		case "udp":
			remote, err = heartshield.DialUDP(*server, []byte(*secret), opt)
		default:
			err = fmt.Errorf("unknown -transport %q (tcp or udp)", *transport)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer remote.Close()
		fmt.Printf("[session %d on %s/%s]\n\n", remote.SessionID(), *transport, *server)
	}

	if *batch > 0 {
		if remote == nil {
			fmt.Fprintln(os.Stderr, "error: -batch requires -server")
			os.Exit(2)
		}
		runBatch(remote, *batch)
		if *run == "" {
			printSessionMetrics(remote, *sessMet)
			return
		}
	}

	for _, name := range names {
		start := time.Now()
		var rendered string
		if remote != nil {
			// Streamed progress: the server reports completed trials
			// while the experiment runs, so long remote runs are visibly
			// alive.
			out, err := remote.RunExperimentStream(name, cfg, func(p heartshield.ExperimentProgress) {
				fmt.Fprintf(os.Stderr, "\r[%s: %d/%d trials]", p.Stage, p.Done, p.Total)
				if p.Done == p.Total {
					fmt.Fprint(os.Stderr, "\n")
				}
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			rendered = out
		} else {
			res, err := heartshield.RunExperiment(name, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			rendered = res.Render()
		}
		fmt.Print(rendered)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if remote != nil {
		printSessionMetrics(remote, *sessMet)
	}
}

// runBatch drives n protected exchanges through BATCH-EXCHANGE frames
// (up to 256 per sealed round trip) and prints a summary.
func runBatch(remote *heartshield.RemoteSimulation, n int) {
	start := time.Now()
	var sumBER, sumCancel float64
	done := 0
	for done < n {
		chunk := n - done
		if chunk > 256 {
			chunk = 256
		}
		items := make([]heartshield.BatchItem, chunk)
		for i := range items {
			items[i] = heartshield.BatchItem{IMD: 0, Command: heartshield.Interrogate}
		}
		reports, err := remote.ProtectedExchangeBatch(items)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		for _, rep := range reports {
			sumBER += rep.EavesdropperBER
			sumCancel += rep.CancellationDB
		}
		done += chunk
	}
	elapsed := time.Since(start)
	fmt.Printf("batched %d exchanges in %v (%.2f ms/exchange): mean eavesdropper BER %.4f, mean cancellation %.2f dB\n\n",
		n, elapsed.Round(time.Millisecond),
		float64(elapsed.Milliseconds())/float64(n), sumBER/float64(n), sumCancel/float64(n))
}

// impairSpec is a fully parsed -impair specification: the network-wide
// impairment, optional per-direction overrides, and a partition
// schedule.
type impairSpec struct {
	imp        faultnet.Impairment
	up, down   *faultnet.Impairment // client→server / server→client overrides
	partitions []faultnet.Partition
}

// parseImpairSpec parses the full -impair grammar. On top of the base
// keys (see parseImpairment), it accepts:
//
//   - partition=start:dur — a scheduled full outage, offsets measured
//     from session establishment; repeat the key for several windows
//     ("partition=500ms:2s,partition=4s:1s").
//   - up=... / down=... — per-direction impairment overrides for the
//     client→server (up) or server→client (down) flow, written as
//     colon-separated pairs joined by '+' ("up=drop:0.5+delay:2ms").
func parseImpairSpec(spec string) (impairSpec, error) {
	var out impairSpec
	var base []string
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, hasVal := strings.Cut(field, "=")
		switch key {
		case "partition":
			startS, durS, ok := strings.Cut(val, ":")
			if !hasVal || !ok {
				return out, fmt.Errorf("impairment partition=%q: want start:dur", val)
			}
			start, err := time.ParseDuration(startS)
			if err != nil || start < 0 {
				return out, fmt.Errorf("impairment partition start %q: want a non-negative duration", startS)
			}
			dur, err := time.ParseDuration(durS)
			if err != nil || dur <= 0 {
				return out, fmt.Errorf("impairment partition dur %q: want a positive duration", durS)
			}
			out.partitions = append(out.partitions, faultnet.Partition{Start: start, Dur: dur})
		case "up", "down":
			// A bare "up"/"down" (or an empty value) would silently
			// install a zero-impairment override — masking the base spec
			// for that direction. Demand an explicit value.
			if !hasVal || val == "" {
				return out, fmt.Errorf("impairment %s needs a value, e.g. %s=drop:0.5+delay:2ms", key, key)
			}
			sub := strings.ReplaceAll(strings.ReplaceAll(val, ":", "="), "+", ",")
			imp, err := parseImpairment(sub)
			if err != nil {
				return out, fmt.Errorf("impairment %s=%q: %v", key, val, err)
			}
			if key == "up" {
				out.up = &imp
			} else {
				out.down = &imp
			}
		default:
			base = append(base, field)
		}
	}
	var err error
	out.imp, err = parseImpairment(strings.Join(base, ","))
	return out, err
}

// parseImpairment parses "drop=0.1,dup=0.05,reorder=0.05,corrupt=0.01,
// delay=2ms,jitter=1ms" into a faultnet impairment.
func parseImpairment(spec string) (faultnet.Impairment, error) {
	var imp faultnet.Impairment
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return imp, fmt.Errorf("impairment field %q is not key=value", field)
		}
		switch key {
		case "drop", "dup", "reorder", "corrupt":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return imp, fmt.Errorf("impairment %s=%q: want a probability in [0,1]", key, val)
			}
			switch key {
			case "drop":
				imp.Drop = p
			case "dup":
				imp.Dup = p
			case "reorder":
				imp.Reorder = p
			case "corrupt":
				imp.Corrupt = p
			}
		case "delay", "jitter":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return imp, fmt.Errorf("impairment %s=%q: want a non-negative duration", key, val)
			}
			if key == "delay" {
				imp.Delay = d
			} else {
				imp.Jitter = d
			}
		case "depth":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return imp, fmt.Errorf("impairment depth=%q: want a non-negative count", val)
			}
			imp.ReorderDepth = n
		default:
			return imp, fmt.Errorf("unknown impairment key %q", key)
		}
	}
	return imp, nil
}

// runImpaired is the self-contained chaos mode: an in-process server
// and a datagram session joined by the deterministic faultnet layer,
// driving n protected exchanges — one at a time, or pipelined through
// the selective-repeat send window — and reporting what the loss cost:
// retransmits on both sides, securelink window activity, and the
// impairment schedule's own counters.
func runImpaired(spec string, impairSeed, sessionSeed int64, n int, pipelined bool) {
	parsed, err := parseImpairSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	nw := faultnet.New(impairSeed, parsed.imp)
	defer nw.Close()
	if parsed.up != nil {
		nw.SetFlowImpairment("client", "server", *parsed.up)
	}
	if parsed.down != nil {
		nw.SetFlowImpairment("server", "client", *parsed.down)
	}

	secret := []byte("shieldsim-impair")
	srv, err := heartshield.NewServer(heartshield.ServeOptions{Secret: secret})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	spc, err := nw.Listen("server")
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	go srv.ServePacket(spc)

	cpc, err := nw.Listen("client")
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	start := time.Now()
	remote, err := heartshield.DialPacket(cpc, faultnet.Addr("server"), secret, heartshield.DialOptions{
		SimOptions:   heartshield.SimOptions{Seed: sessionSeed},
		RetryTimeout: 20 * time.Millisecond,
		MaxRetries:   12,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	defer remote.Close()
	dialTime := time.Since(start)

	// Partition offsets count from here, so the windows land inside the
	// exchange run rather than racing the handshake.
	if len(parsed.partitions) > 0 {
		nw.SetPartitions(parsed.partitions...)
	}

	kindAt := func(i int) heartshield.CommandKind {
		if i%2 == 1 {
			return heartshield.SetTherapy
		}
		return heartshield.Interrogate
	}
	start = time.Now()
	var sumBER, sumCancel float64
	if pipelined {
		// Selective repeat: submissions block only while the send window
		// is full, so up to a window of exchanges ride the impaired link
		// concurrently and a lost datagram delays only its own request.
		// Results are identical to the sequential loop at the same seed.
		pend := make([]*heartshield.PendingExchange, n)
		for i := range pend {
			pend[i] = remote.StartProtectedExchange(0, kindAt(i))
		}
		for i, p := range pend {
			rep, err := p.Wait()
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: exchange %d: %v\n", i, err)
				os.Exit(1)
			}
			sumBER += rep.EavesdropperBER
			sumCancel += rep.CancellationDB
		}
	} else {
		for i := 0; i < n; i++ {
			rep, err := remote.ProtectedExchange(kindAt(i))
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: exchange %d: %v\n", i, err)
				os.Exit(1)
			}
			sumBER += rep.EavesdropperBER
			sumCancel += rep.CancellationDB
		}
	}
	elapsed := time.Since(start)

	m, err := remote.SessionMetrics()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	st := nw.Stats()
	mode := "sequential"
	if pipelined {
		mode = "pipelined"
	}
	fmt.Printf("impaired datagram session (%s, impair seed %d, session seed %d, %s):\n", spec, impairSeed, sessionSeed, mode)
	fmt.Printf("  %d exchanges in %v (%.2f ms/exchange, handshake %v): mean BER %.4f, mean cancellation %.2f dB\n",
		n, elapsed.Round(time.Millisecond), float64(elapsed.Microseconds())/1000/float64(n),
		dialTime.Round(time.Millisecond), sumBER/float64(n), sumCancel/float64(n))
	fmt.Printf("  client: retransmits=%d timeouts=%d\n", m.ClientRetransmits, m.ClientTimeouts)
	fmt.Printf("  server: cachedResends=%d replayDrops=%d windowAccepts=%d rekeys=%d\n",
		m.Retransmits, m.ReplayDrops, m.WindowAccepts, m.Rekeys)
	fmt.Printf("  faultnet: sent=%d delivered=%d dropped=%d dupped=%d reordered=%d corrupted=%d overflowed=%d noRoute=%d partitionDrops=%d\n",
		st.Sent, st.Delivered, st.Dropped, st.Dupped, st.Reordered, st.Corrupted,
		st.Overflowed, st.NoRoute, st.PartitionDrops)
}

// printSessionMetrics prints the session's STATUS-METRICS when asked.
func printSessionMetrics(remote *heartshield.RemoteSimulation, enabled bool) {
	if !enabled {
		return
	}
	m, err := remote.SessionMetrics()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	fmt.Printf("[session %d metrics: protocol v%d exchanges=%d batches=%d batched=%d attacks=%d experiments=%d pings=%d errors=%d inflightHWM=%d sealedB=%d openedB=%d rekeys=%d srvRetransmits=%d replayDrops=%d windowAccepts=%d progressFrames=%d cliRetransmits=%d cliTimeouts=%d]\n",
		m.SessionID, m.Protocol, m.Exchanges, m.Batches, m.BatchedExchanges,
		m.Attacks, m.Experiments, m.Pings, m.Errors, m.InFlightHWM,
		m.BytesSealed, m.BytesOpened, m.Rekeys,
		m.Retransmits, m.ReplayDrops, m.WindowAccepts, m.ProgressFrames, m.ClientRetransmits, m.ClientTimeouts)
}

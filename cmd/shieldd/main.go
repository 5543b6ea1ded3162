// Command shieldd runs the concurrent shield session server: a long-lived
// daemon serving protected exchanges (pipelined and batched), attack
// trials, and experiment runs over the securelink-sealed wire protocol.
// A session builds its own testbed world on its first physics request;
// a session that only pings or runs experiments builds none.
//
// Usage:
//
//	shieldd -listen :7700 -secret swordfish
//	shieldd -listen 127.0.0.1:7700 -secret-file /etc/shieldd.secret -max-sessions 128
//	shieldd -listen :7700 -secret swordfish -metrics 30s -idle-timeout 2m
//	shieldd -listen :7700 -listen-udp :7701 -secret swordfish
//	shieldd -listen :7700 -secret swordfish -admission-wait -1ns -handshake-rate 50 -max-inflight-global 256
//
// -listen-udp additionally serves the datagram transport (the same
// protocol, with client retransmission and server-side request dedup)
// on a UDP socket, alongside TCP. Each session pipelines up to 16
// requests: the window is part of the protocol, the same constant at
// both ends, so no flag sets it. The admission flags bound overload:
// -admission-wait caps how long a handshake may queue for a session slot
// (negative sheds immediately), -handshake-rate/-handshake-burst meter
// datagram handshakes per peer, and -max-inflight-global sheds requests
// beyond a server-wide work bound; shed work is answered with BUSY and
// the -busy-retry-after hint.
//
// Drive it with cmd/shieldsim's client mode:
//
//	shieldsim -server 127.0.0.1:7700 -secret swordfish -run fig7 -quick
//	shieldsim -server 127.0.0.1:7700 -secret swordfish -batch 64
//	shieldsim -server 127.0.0.1:7701 -transport udp -secret swordfish -batch 64
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"heartshield"
)

func main() {
	var (
		listen      = flag.String("listen", ":7700", "TCP listen address")
		listenUDP   = flag.String("listen-udp", "", "also serve the datagram transport on this UDP address")
		secret      = flag.String("secret", "", "master pairing secret (shared with clients)")
		secretFile  = flag.String("secret-file", "", "file holding the master pairing secret")
		maxSessions = flag.Int("max-sessions", 64, "concurrently active session bound")
		expWorkers  = flag.Int("exp-workers", runtime.NumCPU(), "worker cap for remotely requested experiments")
		maxExtra    = flag.Int("max-extra-imds", 8, "largest multi-IMD batch a session may request")
		idleTimeout = flag.Duration("idle-timeout", 5*time.Minute, "reap sessions idle this long (0 disables)")
		metricsEach = flag.Duration("metrics", 0, "dump server metrics at this interval (0 disables)")

		admissionWait  = flag.Duration("admission-wait", 0, "how long a handshake may wait for a session slot before BUSY (0 queues forever, negative sheds immediately)")
		handshakeRate  = flag.Float64("handshake-rate", 0, "per-peer sustained datagram handshakes per second (0 disables rate limiting)")
		handshakeBurst = flag.Int("handshake-burst", 0, "per-peer handshake burst on top of -handshake-rate")
		maxInFlight    = flag.Int("max-inflight-global", 0, "server-wide in-flight work bound; excess requests get BUSY (0 disables)")
		busyRetryAfter = flag.Duration("busy-retry-after", 0, "retry-after hint carried in BUSY replies (0 = default)")
	)
	flag.Parse()

	key := []byte(*secret)
	if *secretFile != "" {
		b, err := os.ReadFile(*secretFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		key = []byte(strings.TrimSpace(string(b)))
	}
	if len(key) == 0 {
		fmt.Fprintln(os.Stderr, "error: provide -secret or -secret-file")
		os.Exit(2)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("shieldd listening on %s (max %d sessions, %d experiment workers, idle timeout %v)\n",
		l.Addr(), *maxSessions, *expWorkers, *idleTimeout)

	srv, err := heartshield.NewServer(heartshield.ServeOptions{
		Secret:            key,
		MaxSessions:       *maxSessions,
		ExperimentWorkers: *expWorkers,
		MaxExtraIMDs:      *maxExtra,
		IdleTimeout:       *idleTimeout,
		AdmissionWait:     *admissionWait,
		HandshakeRate:     *handshakeRate,
		HandshakeBurst:    *handshakeBurst,
		MaxInFlightGlobal: *maxInFlight,
		BusyRetryAfter:    *busyRetryAfter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	if *listenUDP != "" {
		pc, err := net.ListenPacket("udp", *listenUDP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("shieldd datagram transport on %s\n", pc.LocalAddr())
		go func() {
			err := srv.ServePacket(pc)
			fmt.Fprintln(os.Stderr, "udp error:", err)
		}()
	}

	if *metricsEach > 0 {
		go func() {
			tick := time.NewTicker(*metricsEach)
			defer tick.Stop()
			for range tick.C {
				fmt.Printf("metrics %s %s\n", time.Now().Format(time.RFC3339), srv.Metrics())
			}
		}()
	}

	err = srv.Serve(l)
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	"heartshield"
	"heartshield/internal/dsp"
	"heartshield/internal/modem"
	"heartshield/internal/securelink"
	"heartshield/internal/stats"
	"heartshield/internal/wire"
	"heartshield/internal/wire/dgram"
)

// probeBudget is how long each isolated-call probe runs.
const probeBudget = 100 * time.Millisecond

// batchTarget is the length of one timed batch of isolated calls.
const batchTarget = time.Millisecond

// Sinks keep the compiler from discarding probed calls.
var (
	sinkB []byte
	sinkF float64
	sinkC []complex128
)

// perCall times f in batches of about batchTarget until budget is spent
// and returns the median batch's nanoseconds per call.
func perCall(budget time.Duration, f func()) float64 {
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t) >= batchTarget || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var batches timings
	deadline := time.Now().Add(budget)
	for batches.count() < 3 || time.Now().Before(deadline) {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches.add(time.Since(t))
	}
	return float64(batches.quantile(0.5)) / float64(n)
}

// probeKernels times the dsp and stats kernels in isolation at the sizes
// the modem, shield and eavesdropper use.
func probeKernels(seed int64, m map[string]metric) {
	rng := rand.New(rand.NewSource(seed))
	cplx := func(n int) []complex128 {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return x
	}
	for _, n := range []int{256, 8192} {
		plan := dsp.NewFFTPlan(n)
		src, buf := cplx(n), make([]complex128, n)
		m[fmt.Sprintf("dsp.fft%d_ns", n)] = metric{perCall(probeBudget, func() {
			copy(buf, src)
			plan.Forward(buf)
		}), "ns"}
	}
	rp := dsp.NewRFFTPlan(1024)
	xr := make([]float64, 1024)
	for i := range xr {
		xr[i] = rng.NormFloat64()
	}
	spec := make([]complex128, rp.Bins())
	m["dsp.rfft1024_ns"] = metric{perCall(probeBudget, func() { sinkC = rp.Forward(spec, xr) }), "ns"}

	cfg := modem.DefaultFSK
	fir := dsp.BandPassFIR(cfg.Deviation, cfg.SymbolRate, cfg.SampleRate, 129, dsp.Hamming)
	obs := cplx(12000)
	m["dsp.fir129_ns"] = metric{perCall(probeBudget, func() { sinkC = fir.Filter(obs) }), "ns"}

	g := stats.NewRNG(seed)
	m["stats.norm_ns"] = metric{perCall(probeBudget, func() { sinkF += g.Normal(0, 1) }), "ns"}
}

// probeSecurelink times the handshake and record-layer calls in isolation:
// the X25519 exchange, the v4 key schedule, resumption tickets, datagram
// cookies, and Seal/Open at the ping and exchange-response sizes.
func probeSecurelink(envs [][]byte, m map[string]metric) error {
	peer, err := securelink.NewEphemeral()
	if err != nil {
		return err
	}
	var probeErr error
	m["securelink.x25519_us"] = metric{perCall(probeBudget, func() {
		e, err := securelink.NewEphemeral()
		if err == nil {
			sinkB, err = e.Shared(peer.Public())
		}
		if err != nil {
			probeErr = err
		}
	}) / 1e3, "us"}
	if probeErr != nil {
		return probeErr
	}

	hello := make([]byte, 96)
	share := peer.Public()
	m["securelink.key_schedule_us"] = metric{perCall(probeBudget, func() {
		hs := securelink.NewHandshake(securelink.HandshakeLabelV4)
		hs.MixHash(hello)
		hs.MixHash(share)
		hs.MixKey(secret)
		hs.MixKey(share)
		sinkB = hs.SessionSecret()
		sinkB = hs.ResumptionSecret()
	}) / 1e3, "us"}

	tickets, err := securelink.NewTicketSource(0, time.Hour)
	if err != nil {
		return err
	}
	rms := make([]byte, 32)
	const addr = "127.0.0.1:40000"
	m["securelink.ticket_mint_us"] = metric{perCall(probeBudget, func() {
		sinkB, probeErr = tickets.Mint(rms, addr)
	}) / 1e3, "us"}
	// Redeem is single-use, so each timed batch redeems fresh tickets.
	pool := make([][]byte, 0, 256)
	var redeem timings
	for redeem.count() < 20 {
		pool = pool[:0]
		for len(pool) < cap(pool) {
			t, err := tickets.Mint(rms, addr)
			if err != nil {
				return err
			}
			pool = append(pool, t)
		}
		t := time.Now()
		for _, tk := range pool {
			if _, ok := tickets.Redeem(tk); !ok {
				return fmt.Errorf("securelink: a fresh ticket did not redeem")
			}
		}
		redeem.add(time.Since(t))
	}
	m["securelink.ticket_redeem_us"] = metric{float64(redeem.quantile(0.5)) / float64(cap(pool)) / 1e3, "us"}

	cookies, err := securelink.NewCookieSource(0)
	if err != nil {
		return err
	}
	nonce := make([]byte, 16)
	cookie := cookies.Mint(addr, nonce)
	m["securelink.cookie_mint_ns"] = metric{perCall(probeBudget, func() { sinkB = cookies.Mint(addr, nonce) }), "ns"}
	ok := true
	m["securelink.cookie_verify_ns"] = metric{perCall(probeBudget, func() {
		ok = ok && cookies.Verify(addr, nonce, cookie)
	}), "ns"}
	if !ok {
		return fmt.Errorf("securelink: a fresh cookie did not verify")
	}

	// Seal a round of messages, alternating the envelope sizes, then open
	// them in order (Open enforces the sequence window).
	shield, prog, err := securelink.Pair(secret)
	if err != nil {
		return err
	}
	const batch = 64
	var seal, open timings
	sealed := make([][]byte, batch)
	deadline := time.Now().Add(2 * probeBudget)
	for seal.count() < 20 || time.Now().Before(deadline) {
		t := time.Now()
		for i := range sealed {
			sealed[i] = shield.Seal(envs[i%len(envs)])
		}
		seal.add(time.Since(t))
		t = time.Now()
		for _, msg := range sealed {
			if sinkB, err = prog.Open(msg); err != nil {
				return fmt.Errorf("securelink: open: %w", err)
			}
		}
		open.add(time.Since(t))
	}
	m["securelink.seal_ns"] = metric{float64(seal.quantile(0.5)) / batch, "ns"}
	m["securelink.open_ns"] = metric{float64(open.quantile(0.5)) / batch, "ns"}
	return probeErr
}

// probeWire times the v3+ envelope codec on an exchange response and a
// pong, and the datagram framing of a sealed exchange response.
func probeWire(resp *wire.ExchangeResp, m map[string]metric) ([][]byte, error) {
	pong := &wire.Pong{Token: 42}
	envs := [][]byte{wire.EncodeEnvelopeV3(7, 0, 6, pong), wire.EncodeEnvelopeV3(8, 0, 7, resp)}
	m["wire.encode_env_ns"] = metric{perCall(probeBudget, func() {
		sinkB = wire.EncodeEnvelopeV3(7, 0, 6, pong)
		sinkB = wire.EncodeEnvelopeV3(8, 0, 7, resp)
	}) / 2, "ns"}
	var decErr error
	m["wire.decode_env_ns"] = metric{perCall(probeBudget, func() {
		for _, env := range envs {
			if _, _, _, _, err := wire.DecodeEnvelopeV3(env); err != nil {
				decErr = err
			}
		}
	}) / 2, "ns"}
	if decErr != nil {
		return nil, fmt.Errorf("wire: decode: %w", decErr)
	}

	shield, _, err := securelink.Pair(secret)
	if err != nil {
		return nil, err
	}
	payload := shield.Seal(envs[1])
	frame, err := dgram.Encode(dgram.KindSealed, payload)
	if err != nil {
		return nil, err
	}
	m["dgram.encode_ns"] = metric{perCall(probeBudget, func() {
		sinkB, err = dgram.Encode(dgram.KindSealed, payload)
	}), "ns"}
	m["dgram.decode_ns"] = metric{perCall(probeBudget, func() {
		_, sinkB, err = dgram.Decode(frame)
	}), "ns"}
	return envs, err
}

// firstResponse is the first successful exchange of the sessions at seed,
// in wire form: the realistic payload for the codec and record-layer
// probes.
func firstResponse(seed int64) (*wire.ExchangeResp, error) {
	var err error
	for i := 0; i < 8; i++ {
		sim := heartshield.NewSimulation(heartshield.SimOptions{Seed: stats.TrialSeed(seed, i)})
		var rep heartshield.ExchangeReport
		if rep, err = sim.ProtectedExchange(heartshield.Interrogate); err == nil {
			return &wire.ExchangeResp{Response: rep.Response, ResponseCommand: rep.ResponseCommand,
				EavesBER: rep.EavesdropperBER, CancellationDB: rep.CancellationDB}, nil
		}
	}
	return nil, fmt.Errorf("no successful exchange to probe the codecs with: %w", err)
}

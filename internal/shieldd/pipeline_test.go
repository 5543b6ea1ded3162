package shieldd_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"heartshield/internal/faultnet"
	"heartshield/internal/shieldd"
	"heartshield/internal/wire"
)

// pipelineExchanges is the per-session depth of the pipelined tests:
// deliberately larger than the default send window (16) so the window
// wraps at least once per run.
const pipelineExchanges = 24

// pipelineKind returns the exchange command of step i — the same
// alternating interrogate/set-therapy script as runChaosSession, so
// pipelined and sequential runs execute identical op sequences.
func pipelineKind(i int) uint8 {
	if i%2 == 1 {
		return wire.CmdSetTherapy
	}
	return wire.CmdInterrogate
}

// pipeResp is one exchange outcome in comparable form. A simulated
// channel failure (the scenario deciding an exchange failed in-sim) is
// a deterministic result like any other, so the error text is part of
// the report rather than an abort — only transport-level divergence
// should ever make reports differ.
type pipeResp struct {
	chaosResp
	Err string
}

func toPipeResp(m wire.Message, err error) pipeResp {
	if err != nil {
		return pipeResp{Err: err.Error()}
	}
	r, ok := m.(*wire.ExchangeResp)
	if !ok {
		return pipeResp{Err: fmt.Sprintf("unexpected response %T", m)}
	}
	return pipeResp{chaosResp: chaosResp{
		Response: string(r.Response),
		Command:  r.ResponseCommand,
		BER:      r.EavesBER,
		Cancel:   r.CancellationDB,
	}}
}

// runPipelined submits n exchanges without waiting (Client.Go), then
// collects the outcomes in submission order. With selective repeat the
// whole burst is in flight at once, yet the server must execute it in
// request-ID order.
func runPipelined(c *shieldd.Client, n int) []pipeResp {
	calls := make([]*shieldd.Call, n)
	for i := range calls {
		calls[i] = c.Go(&wire.ExchangeReq{IMD: 0, Cmd: pipelineKind(i)})
	}
	out := make([]pipeResp, n)
	for i, call := range calls {
		out[i] = toPipeResp(call.Wait())
	}
	return out
}

// runSequential drives the same script one request at a time.
func runSequential(c *shieldd.Client, n int) []pipeResp {
	out := make([]pipeResp, n)
	for i := range out {
		r, err := c.Exchange(0, pipelineKind(i))
		if err != nil {
			out[i] = pipeResp{Err: err.Error()}
			continue
		}
		out[i] = toPipeResp(r, nil)
	}
	return out
}

// okCount returns how many exchanges of a report succeeded — the number
// the server's per-session Exchanges counter must show, since an in-sim
// failure is answered with an Error frame and not counted.
func okCount(rep []pipeResp) uint64 {
	var n uint64
	for _, r := range rep {
		if r.Err == "" {
			n++
		}
	}
	return n
}

func reportsEqual(t *testing.T, label string, got, want []pipeResp) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d responses, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: exchange %d diverged\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

// TestPipelinedPerfectLinkNoSpuriousRetransmits pipelines a full burst
// over a perfect datagram network and asserts the selective-repeat layer
// stays silent: zero client retransmits (nothing was lost, so nothing
// may be re-sent — queueing delay behind a deep window must not
// masquerade as loss), results byte-identical to the loss-free
// sequential run, and exactly one execution per request. The retransmit
// timer is pinned well above the worst-case full-window queueing delay
// (a ~2.5 ms exchange × window 16, further inflated ~10× under -race)
// so the only thing that could fire it is an actual loss.
func TestPipelinedPerfectLinkNoSpuriousRetransmits(t *testing.T) {
	nw := faultnet.New(11, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})

	opts := shieldd.SessionOptions{Seed: 21, RetryTimeout: 5 * time.Second}

	p, err := srv.Pipe(shieldd.SessionOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	want := runSequential(p, pipelineExchanges)
	_ = p.Close()

	c := dialPacket(t, nw, "perfect-client", "server", opts)
	defer c.Close()
	reportsEqual(t, "perfect link", runPipelined(c, pipelineExchanges), want)

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Exchanges != okCount(want) {
		t.Errorf("server executed %d exchanges, want exactly %d", m.Exchanges, okCount(want))
	}
	if ts := c.TransportStats(); ts.Retransmits != 0 {
		t.Errorf("%d spurious retransmits on a perfect link, want 0", ts.Retransmits)
	}
}

// TestPipelinedWindowBlocks proves the send window provides real
// backpressure: with the client→server flow black-holed, a window of W
// submissions returns immediately but submission W+1 blocks until a
// slot frees. Healing the flow lets the retransmit layer deliver the
// stalled window and unblock the extra call, and every response must
// still match the loss-free run — the burst that sat in retransmit
// limbo executes exactly once, in order.
func TestPipelinedWindowBlocks(t *testing.T) {
	const window = 4
	nw := faultnet.New(13, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})

	p, err := srv.Pipe(shieldd.SessionOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := runSequential(p, window+1)
	_ = p.Close()

	c := dialPacket(t, nw, "window-client", "server", shieldd.SessionOptions{
		Seed:         5,
		Window:       window,
		RetryTimeout: 10 * time.Millisecond,
		MaxRetries:   200,
	})
	defer c.Close()

	// Black-hole requests (responses are unaffected) after the handshake.
	// A partition, not a flow impairment: flow impairments snapshot at the
	// flow's first datagram, which the handshake already was.
	nw.SetPartitions(faultnet.Partition{Src: "window-client", Dst: "server", Dur: time.Hour})

	calls := make([]*shieldd.Call, window)
	for i := range calls {
		calls[i] = c.Go(&wire.ExchangeReq{IMD: 0, Cmd: pipelineKind(i)})
	}

	extra := make(chan *shieldd.Call, 1)
	go func() {
		extra <- c.Go(&wire.ExchangeReq{IMD: 0, Cmd: pipelineKind(window)})
	}()
	select {
	case <-extra:
		t.Fatal("submission past the send window returned while the window was full")
	case <-time.After(80 * time.Millisecond):
		// Still blocked: the window is doing its job.
	}

	nw.SetPartitions()

	got := make([]pipeResp, 0, window+1)
	for _, call := range append(calls, <-extra) {
		got = append(got, toPipeResp(call.Wait()))
	}
	reportsEqual(t, "window burst", got, want)

	if ts := c.TransportStats(); ts.Retransmits == 0 {
		t.Error("black-holed window recovered with zero retransmits: the retry layer was not engaged")
	}
}

// TestPipelinedReorderDeterminism hammers the resequencer: half of all
// datagrams are held back behind the next four, so the server routinely
// receives exchange N+k before exchange N. Responses must still reflect
// execution in request-ID order — byte-identical to the sequential
// loss-free run — or the reorder buffer leaked an op past a gap.
func TestPipelinedReorderDeterminism(t *testing.T) {
	nw := faultnet.New(99, faultnet.Impairment{Reorder: 0.5, ReorderDepth: 4})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})

	p, err := srv.Pipe(shieldd.SessionOptions{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	want := runSequential(p, pipelineExchanges)
	_ = p.Close()

	c := dialPacket(t, nw, "reorder-client", "server", shieldd.SessionOptions{
		Seed:         77,
		RetryTimeout: 25 * time.Millisecond,
		MaxRetries:   40,
	})
	defer c.Close()
	reportsEqual(t, "reorder", runPipelined(c, pipelineExchanges), want)

	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Exchanges != okCount(want) {
		t.Errorf("server executed %d exchanges, want exactly %d", m.Exchanges, okCount(want))
	}
}

// TestChaosPipelinedSessions extends the chaos wall to selective
// repeat: a fleet of sessions pipelines its whole exchange script
// through 30% drop (plus duplication and reordering), and every
// session's response stream must be byte-identical to the loss-free
// sequential run at the same seed. This is the tentpole guarantee — a
// lost datagram stalls only its own request ID while later IDs keep
// completing, yet the resequencer must never let an op execute early.
func TestChaosPipelinedSessions(t *testing.T) {
	const nSessions = 8
	imp := faultnet.Impairment{
		Drop:    0.30,
		Dup:     0.05,
		Reorder: 0.05,
		Corrupt: 0.01,
	}
	nw := faultnet.New(808808, imp)
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{MaxSessions: nSessions})

	want := make([][]pipeResp, nSessions)
	for i := range want {
		p, err := srv.Pipe(shieldd.SessionOptions{Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = runSequential(p, pipelineExchanges)
		_ = p.Close()
	}

	got := make([][]pipeResp, nSessions)
	mets := make([]*wire.MetricsResp, nSessions)
	errs := make([]error, nSessions)
	var wg sync.WaitGroup
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pc, err := nw.Listen(fmt.Sprintf("pipe-chaos-%02d", i))
			if err != nil {
				errs[i] = err
				return
			}
			c, err := shieldd.NewPacketClient(pc, faultnet.Addr("server"), testSecret, shieldd.SessionOptions{
				// The timer sits above the full-window queueing delay so
				// recovery is driven by RTOs on real losses, not by
				// backoff inflated through spurious ones.
				Seed:         int64(100 + i),
				RetryTimeout: 50 * time.Millisecond,
				MaxRetries:   20,
			})
			if err != nil {
				pc.Close()
				errs[i] = fmt.Errorf("dial: %w", err)
				return
			}
			defer c.Close()
			got[i] = runPipelined(c, pipelineExchanges)
			mets[i], errs[i] = c.Metrics()
		}(i)
	}
	wg.Wait()

	for i := 0; i < nSessions; i++ {
		if errs[i] != nil {
			t.Errorf("session %d: %v", i, errs[i])
			continue
		}
		reportsEqual(t, fmt.Sprintf("chaos session %d (seed %d)", i, 100+i), got[i], want[i])
		if mets[i].Exchanges != okCount(want[i]) {
			t.Errorf("session %d executed %d exchanges, want exactly %d (dedup must stop re-execution)",
				i, mets[i].Exchanges, okCount(want[i]))
		}
	}
}

// TestExperimentStreamProgress pins the streaming contract on a v3
// datagram session: fig7 at 130 trials must produce exactly three
// EXPERIMENT-PROGRESS frames (trials 64, 128, and the final 130 — the
// frame count is a pure function of the trial count), the callback sees
// them in order with done==total last, and client transport stats,
// session metrics, and server-wide metrics all agree on the count.
func TestExperimentStreamProgress(t *testing.T) {
	nw := faultnet.New(6, faultnet.Impairment{})
	defer nw.Close()
	srv := startPacketServer(t, nw, "server", shieldd.ServerConfig{})

	p, err := srv.Pipe(shieldd.SessionOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Experiment(wire.ExperimentReq{Name: "fig7", Seed: 5, Trials: 130, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Close()

	c := dialPacket(t, nw, "stream-client", "server", shieldd.SessionOptions{Seed: 1})
	defer c.Close()

	var mu sync.Mutex
	var frames []wire.ExperimentProgress
	got, err := c.ExperimentStream(wire.ExperimentReq{Name: "fig7", Seed: 5, Trials: 130, Workers: 1},
		func(pr *wire.ExperimentProgress) {
			mu.Lock()
			frames = append(frames, *pr)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("streamed experiment result diverged from single-frame result at the same seed")
	}

	mu.Lock()
	defer mu.Unlock()
	wantDone := []uint32{64, 128, 130}
	if len(frames) != len(wantDone) {
		t.Fatalf("received %d progress frames, want %d: %+v", len(frames), len(wantDone), frames)
	}
	for i, f := range frames {
		if f.Done != wantDone[i] || f.Total != 130 || f.Stage != "fig7" {
			t.Errorf("frame %d = {Done:%d Total:%d Stage:%q}, want {Done:%d Total:130 Stage:\"fig7\"}",
				i, f.Done, f.Total, f.Stage, wantDone[i])
		}
	}
	if final := frames[len(frames)-1]; final.Done != final.Total {
		t.Errorf("final frame Done=%d != Total=%d", final.Done, final.Total)
	}

	if ts := c.TransportStats(); ts.ProgressFrames != uint64(len(wantDone)) {
		t.Errorf("client transport counted %d progress frames, want %d", ts.ProgressFrames, len(wantDone))
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.ProgressFrames != uint64(len(wantDone)) {
		t.Errorf("session metrics counted %d progress frames, want %d", m.ProgressFrames, len(wantDone))
	}
	if snap := srv.Metrics(); snap.TotalProgressFrames < uint64(len(wantDone)) {
		t.Errorf("server-wide progress frames %d < %d", snap.TotalProgressFrames, len(wantDone))
	}
}

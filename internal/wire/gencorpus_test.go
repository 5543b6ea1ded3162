package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteV2Corpus regenerates the checked-in seed corpus entries for
// the v2 frames (request-ID envelopes, BATCH-EXCHANGE, PING/PONG,
// STATUS-METRICS). Run with -write-corpus via:
//
//	WRITE_CORPUS=1 go test -run TestWriteV2Corpus ./internal/wire
func TestWriteV2Corpus(t *testing.T) {
	if os.Getenv("WRITE_CORPUS") == "" {
		t.Skip("set WRITE_CORPUS=1 to regenerate corpus seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWireDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, raw []byte) {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", raw)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("v2-batch-req", (&BatchReq{Items: []ExchangeItem{{IMD: 1, Cmd: CmdSetTherapy}, {IMD: 0, Cmd: CmdInterrogate}}}).Encode())
	write("v2-batch-resp", (&BatchResp{Results: []ExchangeResp{{Response: []byte("r"), ResponseCommand: "data", EavesBER: 0.5, CancellationDB: 33}}}).Encode())
	write("v2-ping", (&Ping{Token: 0x1122334455667788}).Encode())
	write("v2-pong", (&Pong{Token: 42}).Encode())
	write("v2-metrics-req", (&MetricsReq{}).Encode())
	write("v2-metrics-resp", (&MetricsResp{SessionID: 3, Protocol: 2, Exchanges: 5, InFlightHWM: 9}).Encode())
	write("v2-envelope-exchange", idFramed(7, &ExchangeReq{IMD: 0, Cmd: CmdInterrogate}))
	write("v2-envelope-batch", idFramed(0xFFFFFFFFFFFFFFFF, (&BatchReq{Items: []ExchangeItem{{IMD: 0, Cmd: 0}}})))
	write("v2-envelope-truncated", []byte{0, 0, 0, 0, 0, 0, 0})
	write("v2-batch-lying-count", []byte{KindBatchReq, 0xFF, 0xFF, 0xFF, 0xFF})
	cookieHello := &Hello{Version: Version, Seed: 11, Cookie: []byte("cookie-echo-0123")}
	copy(cookieHello.Nonce[:], "fuzz-hello-nonce")
	write("v6-hello-cookie", cookieHello.Encode())
	write("v6-cookie", (&Cookie{Cookie: []byte("srv-cookie-challenge")}).Encode())
	write("v6-busy", (&Busy{RetryAfterMillis: 1000}).Encode())
	write("v6-envelope-busy", idFramed(13, &Busy{RetryAfterMillis: 250}))
	write("v6-cookie-lying-len", []byte{KindCookie, 0xFF, 0xFF, 0xFF, 0xFF})
	write("v8-progress", (&ExperimentProgress{Done: 64, Total: 400, Stage: "fig7"}).Encode())
	write("v8-env3-progress", EncodeEnvelopeV3(21, EnvPartial, 20, &ExperimentProgress{Done: 128, Total: 400, Stage: "fig7"}))
	write("v8-env3-exchange", EncodeEnvelopeV3(7, 0, 6, &ExchangeReq{IMD: 0, Cmd: CmdInterrogate}))
	write("v8-env3-truncated", make([]byte, 16))
	akeHello := &Hello{Version: Version, Seed: 21,
		KeyShare: make([]byte, 32), Ticket: []byte("opaque-resumption-ticket")}
	copy(akeHello.Nonce[:], "fuzz-v4-ake-nonc")
	for i := range akeHello.KeyShare {
		akeHello.KeyShare[i] = byte(i)
	}
	write("v10-hello-ake", akeHello.Encode())
	challenge2 := &Challenge2{KeyShare: make([]byte, 32)}
	copy(challenge2.ServerNonce[:], "fuzz-v4-srvnonce")
	write("v10-challenge2", challenge2.Encode())
	write("v10-challenge2-resumed", (&Challenge2{Resumed: true}).Encode())
	write("v10-helloack-ticket", (&HelloAck{Version: Version, SessionID: 5, Ticket: []byte("minted-ticket")}).Encode())
	write("v10-challenge2-lying-len", []byte{KindChallenge2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
}

package shieldcore

import (
	"errors"
	"fmt"

	"heartshield/internal/channel"
	"heartshield/internal/modem"
	"heartshield/internal/phy"
	"heartshield/internal/securelink"
)

// RelayResult reports one proxied command/response exchange (§4: the
// shield is the gateway between authorized programmers and the IMD).
type RelayResult struct {
	// CommandBurst is the command as transmitted to the IMD. Its samples,
	// like Jam's, live in the sample arena until the trial ends.
	CommandBurst *channel.Burst
	// Monitor is the concurrent-transmission check during the command.
	Monitor TxMonitorResult
	// Jam is the passive-defense placement covering the response window.
	Jam *JamPlacement
	// Response is the IMD's decoded reply (nil if none decoded).
	Response *phy.Frame
	// RxDetail carries the raw receive result for diagnostics.
	RxDetail modem.RxFrame
}

// RelayCommand transmits a command to the protected IMD and jams the
// response window while decoding the response through the jamming. The
// caller must run the IMD's ProcessWindow between PlaceCommand and
// CollectResponse; RelayCommand is therefore split into two halves joined
// by the returned continuation.
//
// Usage:
//
//	pending, _ := shield.PlaceCommand(frame, start)
//	imdDevice.ProcessWindow(...)        // the IMD reacts to the medium
//	result := pending.Collect()
type PendingRelay struct {
	s      *Shield
	result RelayResult
}

// PlaceCommand starts a proxied exchange: it transmits the command from
// the receive antenna, checks for concurrent transmissions, and pre-places
// the response-window jamming. The caller must have run EstimateChannels
// beforehand (in deployment the shield re-estimates immediately before
// every transmission, §5).
func (s *Shield) PlaceCommand(f *phy.Frame, start int64) (*PendingRelay, error) {
	if f.Serial != s.Protected.Serial {
		return nil, fmt.Errorf("shieldcore: command serial %q does not match protected device", f.Serial)
	}
	if !s.est.Valid {
		return nil, errors.New("shieldcore: PlaceCommand requires a channel estimate")
	}
	burst, mon := s.TransmitAndMonitor(f, start)
	pr := &PendingRelay{s: s}
	pr.result.CommandBurst = burst
	pr.result.Monitor = mon
	if mon.Concurrent {
		// The command window was contested; the switch to jamming already
		// covers the response slot. Nothing to decode.
		return pr, nil
	}
	pr.result.Jam = s.JamResponseWindow(burst.End())
	return pr, nil
}

// Collect decodes the IMD's response from inside the shield's own jamming
// and completes the relay result.
func (p *PendingRelay) Collect() RelayResult {
	if p.result.Jam != nil {
		rx, ok := p.s.DecodeWhileJamming(p.result.Jam)
		p.result.RxDetail = rx
		if ok && rx.Frame != nil && rx.Frame.Serial == p.s.Protected.Serial {
			p.result.Response = rx.Frame
		}
	}
	return p.result
}

// Errors for the secure-link service.
var (
	ErrBadRequest = errors.New("shieldcore: malformed relay request")
	ErrNoResponse = errors.New("shieldcore: no response from IMD")
)

// GatewaySession serves authorized programmers over the authenticated
// encrypted channel: it unseals command frames, relays them to the IMD
// with full jamming protection, and seals the responses back.
type GatewaySession struct {
	Shield *Shield
	Link   *securelink.Link
}

// HandleRequest processes one sealed request. The caller supplies the
// medium time at which the relay should start and a callback that lets
// the IMD (and any other simulated devices) react to the placed command
// before the response is collected.
func (g *GatewaySession) HandleRequest(sealed []byte, start int64, deviceStep func(cmdBurst *channel.Burst)) ([]byte, error) {
	plain, err := g.Link.Open(sealed)
	if err != nil {
		return nil, err
	}
	frame, err := phy.ParseFrame(plain)
	if err != nil {
		return nil, ErrBadRequest
	}
	// Fresh channel estimate immediately before acting; the channel then
	// drifts one step before the jam is used (the honest ordering).
	g.Shield.EstimateChannels()
	g.Shield.Medium.Perturb()
	pending, err := g.Shield.PlaceCommand(frame, start)
	if err != nil {
		return nil, ErrBadRequest
	}
	if deviceStep != nil {
		deviceStep(pending.result.CommandBurst)
	}
	res := pending.Collect()
	if res.Response == nil {
		return nil, ErrNoResponse
	}
	return g.Link.Seal(res.Response.Marshal()), nil
}

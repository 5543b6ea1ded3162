package testbed

import (
	"errors"

	"heartshield/internal/adversary"
	"heartshield/internal/phy"
)

// Errors returned by RunProtectedExchange.
var (
	ErrNoResponse   = errors.New("testbed: IMD did not respond")
	ErrDecodeFailed = errors.New("testbed: shield failed to decode the response")
)

// ExchangeOutcome reports one protected exchange trial.
type ExchangeOutcome struct {
	// Response is the frame the shield decoded through its own jamming.
	Response *phy.Frame
	// CancellationDB is the antidote cancellation measured this trial.
	CancellationDB float64
	// EavesdropperBER is the eavesdropper's bit error rate against the
	// jammed response.
	EavesdropperBER float64
}

// RunProtectedExchange runs the canonical shield-proxied exchange trial
// against IMD imdIdx: fresh trial, channel estimation plus drift,
// cancellation measurement, command relay, IMD reaction, decode through
// jamming, and the eavesdropper's intercept attempt. It is THE protected-
// exchange sequence: World.Exchange, which the public Simulation and the
// shieldd session server both drive, calls it.
func (sc *Scenario) RunProtectedExchange(eaves *adversary.Eavesdropper, imdIdx int, cmd *phy.Frame) (ExchangeOutcome, error) {
	var out ExchangeOutcome
	sc.NewTrial()
	sc.PrepareShield()
	out.CancellationDB = sc.Shield.CancellationDB(4096)

	pending, err := sc.Shield.PlaceCommand(cmd, 0)
	if err != nil {
		return out, err
	}
	re := sc.IMDs[imdIdx].ProcessWindow(0, 12000)
	if !re.Responded {
		return out, ErrNoResponse
	}
	res := pending.Collect()
	if res.Response == nil {
		return out, ErrDecodeFailed
	}
	out.Response = res.Response
	truth := re.Response.MarshalBits()
	out.EavesdropperBER = eaves.InterceptBER(sc.Channel(), re.ResponseBurst.Start, truth)
	return out, nil
}

// AttackOutcome reports one unauthorized-command trial.
type AttackOutcome struct {
	Responded       bool
	TherapyChanged  bool
	Jammed          bool
	Alarmed         bool
	RSSIAtShieldDBm float64
}

// RunAttackTrial runs the canonical replay-attack trial: the adversary
// transmits cmd, the shield (if on) detects and defends, and the primary
// IMD reacts to whatever reached it. World.Attack — behind the public
// Simulation, the shieldd server, and the attack experiments — calls it.
func (sc *Scenario) RunAttackTrial(adv *adversary.Active, cmd *phy.Frame, shieldOn bool) AttackOutcome {
	var out AttackOutcome
	sc.NewTrial()
	alarmsBefore := len(sc.Shield.Alarms())
	if shieldOn {
		sc.PrepareShield()
	}
	b := adv.Replay(sc.Channel(), 1000, cmd)
	window := int(b.End()) + 2500
	if shieldOn {
		dr := sc.Shield.DefendWindow(0, window)
		out.Jammed = dr.Jammed
		out.RSSIAtShieldDBm = dr.RSSIDBm
		out.Alarmed = len(sc.Shield.Alarms()) > alarmsBefore
	}
	re := sc.IMD.ProcessWindow(0, window)
	out.Responded = re.Responded
	out.TherapyChanged = re.TherapyChanged
	return out
}

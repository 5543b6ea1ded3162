package experiments

import (
	"fmt"
	"strings"

	"heartshield/internal/phy"
	"heartshield/internal/testbed"
)

// AblationAntidoteResult compares the shield's ability to decode the
// IMD's jammed transmissions with and without the antidote — the design
// choice at the heart of §5 (without it, the shield jams itself blind).
type AblationAntidoteResult struct {
	Trials          int
	DecodedWith     int
	DecodedWithout  int
	CancellationsDB []float64
}

// AblationAntidote runs paired decode attempts with the antidote enabled
// and disabled. Each keyed trial runs both arms, so the pairing survives
// the worker fan-out.
func AblationAntidote(cfg Config) AblationAntidoteResult {
	trials := cfg.trials(30, 10)
	res := AblationAntidoteResult{Trials: trials}
	outs := runTrials(cfg, testbed.Options{Seed: cfg.seed("ablation-antidote")}, trials, testbed.NewWorld,
		func(_ int, sc *testbed.Scenario, _ *testbed.World) [2]bool {
			var decoded [2]bool
			for arm, enabled := range []bool{true, false} {
				if arm > 0 {
					sc.NewTrial()
				}
				sc.Shield.AntidoteEnabled = enabled
				sc.PrepareShield()
				pending, err := sc.Shield.PlaceCommand(sc.InterrogateFrame(), 0)
				if err != nil {
					continue
				}
				sc.IMD.ProcessWindow(0, 12000)
				out := pending.Collect()
				decoded[arm] = out.Response != nil
			}
			// The worker's scenario is reused for its next trial; leave the
			// non-reseeded flag as a fresh build would have it.
			sc.Shield.AntidoteEnabled = true
			return decoded
		})
	for _, d := range outs {
		if d[0] {
			res.DecodedWith++
		}
		if d[1] {
			res.DecodedWithout++
		}
	}
	return res
}

// Render prints the antidote ablation summary.
func (r AblationAntidoteResult) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader("Ablation — antidote on vs off (decoding through own jamming)"))
	fmt.Fprintf(&b, "%-34s %d/%d\n", "decoded with antidote", r.DecodedWith, r.Trials)
	fmt.Fprintf(&b, "%-34s %d/%d\n", "decoded without antidote", r.DecodedWithout, r.Trials)
	b.WriteString("without the antidote the shield jams itself blind (§5)\n")
	return b.String()
}

// AblationDigitalResult compares shield packet loss at an aggressive
// jamming level with and without the optional digital residual
// cancellation stage (the analog/digital canceler note of §5).
type AblationDigitalResult struct {
	RelJamDB    float64
	Trials      int
	LostPlain   int
	LostDigital int
}

// AblationDigitalCancel measures the benefit of digital cancellation at a
// jamming level beyond the antenna antidote's comfortable budget. The two
// arms are separate scenario shapes sharing one seed (the paired
// comparison the ablation wants); each arm's trials fan out keyed.
func AblationDigitalCancel(cfg Config) AblationDigitalResult {
	trials := cfg.trials(40, 12)
	res := AblationDigitalResult{RelJamDB: 30, Trials: trials}
	for _, digital := range []bool{false, true} {
		lost := runTrials(cfg, testbed.Options{
			Seed:          cfg.seed("ablation-digital"),
			JamPowerRelDB: res.RelJamDB,
			DigitalCancel: digital,
		}, trials, testbed.NewWorld,
			func(_ int, sc *testbed.Scenario, _ *testbed.World) bool {
				sc.PrepareShield()
				pending, err := sc.Shield.PlaceCommand(sc.InterrogateFrame(), 0)
				if err != nil {
					return false
				}
				re := sc.IMD.ProcessWindow(0, 12000)
				if !re.Responded {
					return false
				}
				out := pending.Collect()
				return out.Response == nil
			})
		for _, l := range lost {
			if !l {
				continue
			}
			if digital {
				res.LostDigital++
			} else {
				res.LostPlain++
			}
		}
	}
	return res
}

// Render prints the digital-cancellation ablation.
func (r AblationDigitalResult) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader("Ablation — digital residual cancellation at +30 dB jamming"))
	fmt.Fprintf(&b, "%-38s %d/%d lost\n", "antenna antidote only", r.LostPlain, r.Trials)
	fmt.Fprintf(&b, "%-38s %d/%d lost\n", "with digital cancellation", r.LostDigital, r.Trials)
	b.WriteString("digital cancellation extends the usable jamming budget (§5 note)\n")
	return b.String()
}

// BThreshPoint is one threshold setting's outcome.
type BThreshPoint struct {
	BThresh    int
	MissRate   float64 // IMD-addressed packets not jammed (weak signal)
	FalseJams  float64 // other-device packets jammed
	TrialsUsed int
}

// AblationBThreshResult sweeps the Sid Hamming threshold (§10.1(c)).
type AblationBThreshResult struct {
	Points []BThreshPoint
}

// AblationBThresh measures, for each threshold, how often a weak
// IMD-addressed command escapes jamming and how often another device's
// traffic is falsely jammed. The whole curve is derived from one set of
// received windows (the per-trial Sid Hamming distances), so every
// threshold is evaluated against identical channel draws and the curves
// are monotone by construction.
func AblationBThresh(cfg Config) AblationBThreshResult {
	trials := cfg.trials(60, 15)
	var res AblationBThreshResult
	var other [phy.SerialBytes]byte
	copy(other[:], "QQQ7777777")

	type obs struct {
		detected bool
		checked  bool
		errors   int
	}
	type pairObs struct{ own, foreign obs }

	// Weak-signal scenario: FCC adversary near the shield's detection
	// floor (location 11) — the shield receives the command with
	// occasional bit errors, the situation bthresh exists for. Each keyed
	// trial observes one own-device and one other-device packet.
	outs := runTrials(cfg, testbed.Options{Seed: cfg.seed("ablation-bthresh"), Location: 11}, trials,
		testbed.NewWorld,
		func(_ int, sc *testbed.Scenario, w *testbed.World) pairObs {
			var po pairObs
			sc.PrepareShield()
			b := w.Adv.Replay(sc.Channel(), 800, sc.InterrogateFrame())
			rep := sc.Shield.DefendWindow(0, int(b.End())+1500)
			po.own = obs{rep.BurstDetected, rep.SidChecked, rep.SidErrors}

			sc.NewTrial()
			sc.PrepareShield()
			f := &phy.Frame{Serial: other, Command: phy.CmdInterrogate, Payload: testbed.CommandPayload()}
			b = w.Adv.Replay(sc.Channel(), 800, f)
			rep = sc.Shield.DefendWindow(0, int(b.End())+1500)
			po.foreign = obs{rep.BurstDetected, rep.SidChecked, rep.SidErrors}
			return po
		})

	var own, foreign []obs
	for _, po := range outs {
		if po.own.detected {
			own = append(own, po.own)
		}
		if po.foreign.detected {
			foreign = append(foreign, po.foreign)
		}
	}

	for _, bt := range []int{0, 1, 2, 4, 8, 16, 48} {
		var misses, falses int
		for _, o := range own {
			if !o.checked || o.errors > bt {
				misses++
			}
		}
		for _, o := range foreign {
			if o.checked && o.errors <= bt {
				falses++
			}
		}
		pt := BThreshPoint{BThresh: bt, TrialsUsed: trials}
		if len(own) > 0 {
			pt.MissRate = float64(misses) / float64(len(own))
		}
		if len(foreign) > 0 {
			pt.FalseJams = float64(falses) / float64(len(foreign))
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// Render prints the threshold sweep.
func (r AblationBThreshResult) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader("Ablation — Sid threshold bthresh: misses vs false jams"))
	fmt.Fprintf(&b, "%10s %12s %12s\n", "bthresh", "miss rate", "false jams")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10d %12.2f %12.2f\n", p.BThresh, p.MissRate, p.FalseJams)
	}
	b.WriteString("paper picks bthresh=4: no misses, no false jams (§10.1(c))\n")
	return b.String()
}

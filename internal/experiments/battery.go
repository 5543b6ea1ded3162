package experiments

import (
	"fmt"
	"strings"

	"heartshield/internal/testbed"
)

// BatteryResult works out the shield's energy budget (§7(e)): in the
// absence of attacks the shield transmits only as often as the IMD does,
// so its duty cycle is tiny; under continuous attack it transmits
// constantly but still lasts a day or more, like commercial wearable
// monitors.
type BatteryResult struct {
	// JamSecPerExchange is the air time the shield jams per proxied
	// exchange (response window T2-T1+P plus command time).
	JamSecPerExchange float64
	// ExchangesPerDay is the assumed monitoring workload.
	ExchangesPerDay int
	// IdleDutyCycle is the fraction of the day spent transmitting in the
	// attack-free regime.
	IdleDutyCycle float64
	// BatteryJoules is the assumed wearable battery (500 mAh @ 3.7 V).
	BatteryJoules float64
	// ElectronicsWatts is the baseline radio/DSP draw while active.
	ElectronicsWatts float64
	// PAWatts is the additional power-amplifier draw while transmitting
	// at the FCC limit (dominated by efficiency, not radiated power).
	PAWatts float64
	// IdleDays is the projected battery life in the monitoring-only
	// regime (radio duty-cycled to sessions plus the 200 ms probes).
	IdleDays float64
	// ContinuousJamHours is the life under nonstop active jamming.
	ContinuousJamHours float64
}

// Battery derives the energy analysis from simulated air times.
func Battery(cfg Config) BatteryResult {
	// One proxied exchange (a single keyed trial): command air time +
	// jammed response window.
	jamSec := runTrials(cfg, testbed.Options{Seed: cfg.seed("battery")}, 1, testbed.NewWorld,
		func(_ int, sc *testbed.Scenario, _ *testbed.World) float64 {
			sc.PrepareShield()
			pending, err := sc.Shield.PlaceCommand(sc.InterrogateFrame(), 0)
			if err != nil {
				return 0
			}
			sc.IMD.ProcessWindow(0, 12000)
			out := pending.Collect()
			var sec float64
			if out.Jam != nil {
				sec = sc.FSK.Config().Duration(int(out.Jam.End - out.Jam.Start))
			}
			return sec + sc.FSK.Config().Duration(len(out.CommandBurst.IQ))
		})[0]

	res := BatteryResult{
		JamSecPerExchange: jamSec,
		ExchangesPerDay:   96, // a reading every 15 minutes
		BatteryJoules:     500e-3 * 3.7 * 3600,
		// MICS-class narrowband radio: tens of milliwatts, not the
		// hundreds a WiFi-class radio draws. The PA radiates only 25 µW
		// (FCC limit); its draw is dominated by bias and efficiency.
		ElectronicsWatts: 0.045,
		PAWatts:          0.015,
	}

	// Idle regime: sessions plus a 1 ms probe every 200 ms. The radio
	// electronics run continuously (the shield must always monitor).
	probeDuty := 1e-3 / 200e-3
	txSecPerDay := float64(res.ExchangesPerDay)*res.JamSecPerExchange + probeDuty*86400*0.01
	res.IdleDutyCycle = txSecPerDay / 86400
	idleWatts := res.ElectronicsWatts + res.PAWatts*res.IdleDutyCycle
	res.IdleDays = res.BatteryJoules / idleWatts / 86400

	// Continuous-attack regime: PA on all the time.
	contWatts := res.ElectronicsWatts + res.PAWatts
	res.ContinuousJamHours = res.BatteryJoules / contWatts / 3600
	return res
}

// Render prints the §7(e) energy rows.
func (r BatteryResult) Render() string {
	var b strings.Builder
	b.WriteString(renderHeader("§7(e) — shield energy budget"))
	fmt.Fprintf(&b, "%-44s %.3f s\n", "jam+command air time per exchange", r.JamSecPerExchange)
	fmt.Fprintf(&b, "%-44s %d\n", "exchanges per day (monitoring)", r.ExchangesPerDay)
	fmt.Fprintf(&b, "%-44s %.5f\n", "transmit duty cycle, attack-free", r.IdleDutyCycle)
	fmt.Fprintf(&b, "%-44s %.1f days\n", "battery life, attack-free", r.IdleDays)
	fmt.Fprintf(&b, "%-44s %.0f h\n", "battery life, continuous jamming", r.ContinuousJamHours)
	b.WriteString("paper: comparable wearables last 24–48 h transmitting continuously\n")
	return b.String()
}

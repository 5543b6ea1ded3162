//go:build race

package modem

// raceEnabled reports that this binary was built with -race, under which
// testing.AllocsPerRun is unreliable (sync.Pool instrumentation
// allocates).
const raceEnabled = true

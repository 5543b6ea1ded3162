//go:build race

package modem

// raceEnabled reports that this binary was built with -race, under which
// testing.AllocsPerRun is unreliable (the race runtime allocates).
const raceEnabled = true

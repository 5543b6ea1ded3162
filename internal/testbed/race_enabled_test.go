//go:build race

package testbed

// raceEnabled reports that this binary was built with -race, under which
// testing.AllocsPerRun is unreliable (the race runtime allocates).
const raceEnabled = true

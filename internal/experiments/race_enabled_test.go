//go:build race

package experiments

// raceEnabled reports that this binary was built with -race, under which
// allocation counts are unreliable (the race runtime allocates).
const raceEnabled = true

//go:build !race

package experiments

// raceEnabled reports that this binary was built with -race; see
// race_enabled_test.go.
const raceEnabled = false

//go:build !race

package timing_test

// raceEnabled reports whether the race detector is compiled in (see
// race_enabled_test.go).
const raceEnabled = false

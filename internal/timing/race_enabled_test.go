//go:build race

package timing_test

// raceEnabled reports whether the race detector is compiled in; the
// single-goroutine reference check over the paper suite skips itself
// under it, where it would only add minutes.
const raceEnabled = true

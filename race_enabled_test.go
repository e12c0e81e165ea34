//go:build race

package lily_test

// raceEnabled reports whether the race detector is compiled in. The
// scale smoke test excludes itself under -race: the detector's ~10x
// slowdown turns its wall-clock budget into a measurement of the
// detector, and tells us nothing the race-lifecycle CI job (which runs
// the concurrency suites under -race directly) doesn't.
const raceEnabled = true

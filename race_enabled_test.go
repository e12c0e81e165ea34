//go:build race

package lily_test

// raceEnabled reports whether the race detector is compiled in. The
// scale smoke test and the parallel-speedup floor exclude themselves
// under -race: the detector's ~10x slowdown turns a wall-clock budget or
// floor into a measurement of the detector, and tells us nothing the
// race-lifecycle CI job (which runs the concurrency suites under -race
// directly) doesn't.
const raceEnabled = true

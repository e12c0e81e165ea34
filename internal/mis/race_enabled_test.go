//go:build race

package mis

// raceEnabled reports whether the race detector is compiled in; the
// allocation pins skip themselves under it, since its instrumentation
// changes allocation counts.
const raceEnabled = true

// Package purity is the fixture for the purity analyzer. The fence is
// the whole package: every function is scanned, called or not.
package purity

import (
	"math/rand"
	"os"
	"time"
)

func step() {
	_ = time.Now() // want `wall clock \(time.Now\) in fenced package purity`
}

func since(t0 time.Time) {
	_ = time.Since(t0) // want `wall clock \(time.Since\) in fenced package`
}

func readEnv() string {
	return os.Getenv("LILY_MODE") // want `process environment \(os.Getenv\) in fenced package`
}

func randomness() {
	_ = rand.Intn(10) // want `global rand \(math/rand.Intn\) in fenced package`
}

func iterate(m map[string]int) {
	total := 0.0
	for _, v := range m { // want `order-dependent body`
		total += float64(v)
	}
	_ = total
}

func compareFloats(a, b float64) bool {
	return a == b // want `exact == between float expressions`
}

// exactJustified reuses the floateq escape hatch inside the fence.
func exactJustified(a, b float64) bool {
	//lint:exact inputs are bit-identical copies by construction
	return a == b
}

// sortedJustified reuses the maporder escape hatch inside the fence.
func sortedJustified(m map[string]int, out []string) []string {
	//lint:sorted caller deduplicates and sorts the keys
	for k := range m {
		out = append(out, k)
	}
	return out
}

// justified uses the impure escape hatch with the mandatory reason.
func justified() {
	//lint:impure wall clock feeds a debug log line only, never a cost
	_ = time.Now()
}

// bare shows that an impure marker without a justification suppresses
// nothing.
func bare() {
	//lint:impure
	_ = time.Now() // want `wall clock \(time.Now\) in fenced package`
}

// unreachable is called by nothing, and the fence still covers it.
func unreachable() {
	_ = time.Now()   // want `wall clock \(time.Now\) in fenced package`
	_ = rand.Intn(3) // want `global rand \(math/rand.Intn\) in fenced package`
}

// clock is a package-level reference outside any function body.
var clock = time.Now // want `wall clock \(time.Now\) in fenced package`

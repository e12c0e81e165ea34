// Package maporder is the fixture for the maporder analyzer: flagged
// cases are order-dependent map ranges, allowed cases are provably
// order-insensitive bodies or justified loops.
package maporder

import "sort"

type nodeID int

type stats struct {
	count int
	cost  float64
}

// Flagged: appending map keys in iteration order is order-dependent.
func collectKeysUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `order-dependent body`
		keys = append(keys, k)
	}
	return keys
}

// Flagged: picking a "best" element depends on visit order.
func pickBest(costs map[nodeID]float64) nodeID {
	best := nodeID(-1)
	bestCost := 1e18
	for id, c := range costs { // want `order-dependent body`
		if c < bestCost {
			best, bestCost = id, c
		}
	}
	return best
}

// Flagged: float accumulation is non-associative, so the sum depends on
// iteration order.
func sumFloats(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want `order-dependent body`
		total += v
	}
	return total
}

// Flagged: calling a function with side effects per element.
func emitAll(m map[string]int, emit func(string)) {
	for k := range m { // want `order-dependent body`
		emit(k)
	}
}

// Flagged: break makes the processed subset order-dependent.
func findAny(m map[string]int) bool {
	found := false
	for _, v := range m { // want `order-dependent body`
		if v > 0 {
			found = true
			break
		}
	}
	return found
}

// Allowed: building a set — writes into a map commute.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Allowed: integer accumulation commutes.
func countPositive(m map[nodeID]int) int {
	n := 0
	for _, v := range m {
		if v > 0 {
			n++
		}
	}
	return n
}

// Allowed: integer sum into a struct field.
func tally(m map[string]int, st *stats) {
	for _, v := range m {
		st.count += v
	}
}

// Allowed: delete while ranging commutes.
func dropNegative(m map[string]int) {
	for k, v := range m {
		if v < 0 {
			delete(m, k)
		}
	}
}

// Allowed: the canonical collect-then-sort idiom — the appended slice is
// sorted after the loop, so iteration order cannot leak out.
func collectKeysSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Flagged: appended slice is never sorted afterwards.
func collectValuesNoSort(m map[string]int) []int {
	var vals []int
	for _, v := range m { // want `order-dependent body`
		vals = append(vals, v)
	}
	return vals
}

// Allowed: collect-then-sort with sort.Slice and a comparator.
func collectPairsSorted(m map[string]int) []string {
	pairs := make([]string, 0, len(m))
	for k := range m {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	return pairs
}

// Allowed: justified with //lint:sorted — max with a total deterministic
// tie-break is order-insensitive even though the analyzer cannot prove it.
func pickBestJustified(costs map[nodeID]float64) nodeID {
	best := nodeID(-1)
	bestCost := 1e18
	for id, c := range costs { //lint:sorted max with total tie-break on id is order-insensitive
		if c < bestCost || (c == bestCost && id < best) { // want `exact == between float expressions`
			best, bestCost = id, c
		}
	}
	return best
}

// Allowed: ranging over a slice is ordered — not a map.
func sumSlice(xs []float64) float64 {
	total := 0.0
	for _, v := range xs {
		total += v
	}
	return total
}

// Allowed: per-iteration temporaries with pure initializers, map writes,
// and a slice write indexed by the unique range key (disjoint slots).
func scatter(m map[int]float64, out []float64, flags map[int]bool) {
	for k, v := range m {
		scaled := v * 2
		if scaled < 0 {
			continue
		}
		out[k] = scaled
		flags[k] = true
	}
}

// Flagged: slice write indexed by something other than the range key can
// collide, making the last writer order-dependent.
func scatterCollide(m map[int]float64, out []float64) {
	for k, v := range m { // want `order-dependent body`
		out[k%2] = v
	}
}

// Allowed: nested pure loops accumulating into integer matrix cells —
// int += commutes wherever the cell lives.
func crossCounts(sets []map[nodeID]bool, m [][]int) {
	for i := 0; i < len(sets); i++ {
		for id := range sets[i] {
			for j := 0; j < len(sets); j++ {
				if j != i && sets[j][id] {
					m[i][j]++
				}
			}
		}
	}
}

// Flagged: float matrix accumulation stays order-dependent.
func crossWeights(sets []map[nodeID]float64, m [][]float64) {
	for i := 0; i < len(sets); i++ {
		for id, w := range sets[i] { // want `order-dependent body`
			m[i][0] += w
			_ = id
		}
	}
}

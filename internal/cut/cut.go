// Package cut implements K-feasible cut enumeration over the NAND2/INV
// subject graph and converts every cut into a candidate match backed by
// a synthesized K-input LUT cell. It is the FPGA counterpart of the
// structural matcher in internal/match: both are Backend implementations
// for the covering DP in internal/core (DESIGN.md §14), so LUT cut
// selection is driven by the same placement-aware wire cost as ASIC
// match selection.
//
// Enumeration is the classic bottom-up merge: cuts(v) for a NAND2 node
// is every ≤K-leaf union of one cut of each fanin (plus the trivial cut
// {v} used only for merging), and for an INV node it is the fanin's cut
// set passed through. Cut sets are kept irredundant — a cut whose leaf
// set contains another cut's leaf set is dominated and dropped — and
// bounded to maxCuts per node, shortest leaf sets first, so enumeration
// stays linear in practice. Everything is memoized per node and fully
// deterministic: leaves are sorted by node ID, cut lists are ordered by
// (leaf count, leaf IDs), and the synthesized gate for a given (K, truth
// table) pair is cached so pointer identity is stable within a run.
package cut

import (
	"fmt"
	"math/bits"
	"sort"

	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
)

// maxCuts bounds the per-node cut list. When a node has more irredundant
// cuts than the cap, the survivors are drawn round-robin across leaf
// counts (the first 1-leaf cut, the first 2-leaf cut, ..., then the
// second of each, ...), so the DP always sees both narrow cuts — minimal
// cuts with few leaves reach deepest and wire cheapest — and wide cuts
// that trade inputs for coverage. 16 keeps the per-node candidate count
// in the same range as the ASIC match lists.
const maxCuts = 16

// MaxK is the largest supported LUT input count: cone truth tables are
// computed in a single 64-bit word (2^6 rows).
const MaxK = 6

// Enumerator finds the K-feasible cuts of a subject graph and exposes
// them as match lists. It is the LUT Backend of the covering engine.
// Like match.Matcher, results are memoized per node: the subject graph
// is immutable for the lifetime of a cover run, so each node's cut set
// and match list are computed exactly once.
type Enumerator struct {
	net *logic.Network
	lib *library.Library
	cls *match.Classifier
	k   int

	// cuts[v] holds node v's cut leaf sets (each sorted ascending), the
	// trivial cut {v} first; cutsOK marks computed entries.
	cuts   [][][]logic.NodeID
	cutsOK []bool
	// memo holds the per-node MatchesAt results (nil for nodes that take
	// no LUT, e.g. PIs); memoOK marks computed entries.
	memo   [][]*match.Match
	memoOK []bool

	// gates caches the synthesized LUT cell per (arity, truth table), so
	// equal-function cuts share one *library.Gate within the run.
	gates map[gateKey]*library.Gate

	// scratch state for cone walks and truth-table evaluation: node u is
	// a leaf of the current cut iff leafStamp[u] == stamp, and tt[u] is
	// valid iff ttStamp[u] == stamp.
	leafStamp []uint32
	ttStamp   []uint32
	tt        []uint64
	stamp     uint32
}

type gateKey struct {
	k  int
	tt uint64
}

// NewEnumerator builds a K-feasible cut enumerator over the subject
// graph. k must be in [2, MaxK].
func NewEnumerator(net *logic.Network, lib *library.Library, k int) *Enumerator {
	if k < 2 || k > MaxK {
		panic(fmt.Sprintf("cut: K=%d out of range [2,%d]", k, MaxK))
	}
	n := len(net.Nodes)
	return &Enumerator{
		net:       net,
		lib:       lib,
		cls:       match.Classify(net),
		k:         k,
		cuts:      make([][][]logic.NodeID, n),
		cutsOK:    make([]bool, n),
		memo:      make([][]*match.Match, n),
		memoOK:    make([]bool, n),
		gates:     make(map[gateKey]*library.Gate),
		leafStamp: make([]uint32, n),
		ttStamp:   make([]uint32, n),
		tt:        make([]uint64, n),
	}
}

// K returns the enumerator's LUT input bound.
func (e *Enumerator) K() int { return e.k }

// MatchesAt returns the LUT matches rooted at v: one per non-trivial
// K-feasible cut, in deterministic (leaf count, leaf IDs) order. Results
// are memoized; callers must treat the returned slice as read-only.
func (e *Enumerator) MatchesAt(v logic.NodeID) []*match.Match {
	if e.memoOK[v] {
		return e.memo[v]
	}
	out := e.matchesAt(v)
	e.memo[v] = out
	e.memoOK[v] = true
	return out
}

func (e *Enumerator) matchesAt(v logic.NodeID) []*match.Match {
	if t := e.cls.Type(v); t != match.TypeNand2 && t != match.TypeInv {
		return nil
	}
	var out []*match.Match
	for _, leaves := range e.nodeCuts(v) {
		if len(leaves) == 1 && leaves[0] == v {
			continue // the trivial cut exists only to seed fanout merges
		}
		out = append(out, &match.Match{
			Gate:   e.lutGate(len(leaves), e.truthTable(v, leaves)),
			Inputs: leaves,
			Merged: e.cone(v, leaves),
		})
	}
	return out
}

// nodeCuts returns v's cut set, trivial cut first, memoized. Non-trivial
// cuts are irredundant, capped at maxCuts with leaf-count diversity, and
// ordered by (leaf count, leaf IDs ascending).
func (e *Enumerator) nodeCuts(v logic.NodeID) [][]logic.NodeID {
	if e.cutsOK[v] {
		return e.cuts[v]
	}
	trivial := []logic.NodeID{v}
	var merged [][]logic.NodeID
	switch e.cls.Type(v) {
	case match.TypeInv:
		f := e.net.Nodes[v].Fanins[0]
		// Every cut of the fanin is a cut of v (same leaves, one more
		// interior node). Copy the slice headers, not the leaf arrays:
		// cut leaf sets are immutable once built.
		merged = append(merged, e.nodeCuts(f)[0:]...)
	case match.TypeNand2:
		f := e.net.Nodes[v].Fanins
		c0, c1 := e.nodeCuts(f[0]), e.nodeCuts(f[1])
		for _, a := range c0 {
			for _, b := range c1 {
				if u, ok := mergeLeaves(a, b, e.k); ok {
					merged = append(merged, u)
				}
			}
		}
	default:
		// PIs and foreign nodes contribute only themselves as a leaf.
		e.cuts[v] = [][]logic.NodeID{trivial}
		e.cutsOK[v] = true
		return e.cuts[v]
	}
	merged = selectCuts(pruneCuts(merged), e.k)
	e.cuts[v] = append([][]logic.NodeID{trivial}, merged...)
	e.cutsOK[v] = true
	return e.cuts[v]
}

// selectCuts enforces the maxCuts cap with leaf-count diversity: cuts
// (already in (leaf count, leaf IDs) order from pruneCuts) are taken
// round-robin across leaf-count groups until the cap fills, then the
// survivors are returned in the original order.
func selectCuts(cuts [][]logic.NodeID, k int) [][]logic.NodeID {
	if len(cuts) <= maxCuts {
		return cuts
	}
	// groups[w] indexes the first cut with w+1 leaves; cuts are sorted by
	// length, so each group is a contiguous run.
	type span struct{ start, end int }
	groups := make([]span, k)
	for i, c := range cuts {
		w := len(c) - 1
		if groups[w].end == 0 {
			groups[w].start = i
		}
		groups[w].end = i + 1
	}
	keep := make([]bool, len(cuts))
	kept := 0
	for round := 0; kept < maxCuts; round++ {
		took := false
		for w := 0; w < k && kept < maxCuts; w++ {
			g := groups[w]
			if i := g.start + round; i < g.end {
				keep[i] = true
				kept++
				took = true
			}
		}
		if !took {
			break
		}
	}
	out := cuts[:0]
	for i, c := range cuts {
		if keep[i] {
			out = append(out, c)
		}
	}
	return out
}

// mergeLeaves unions two sorted leaf sets, rejecting results wider than k.
// The inputs are never mutated; the result is freshly allocated.
func mergeLeaves(a, b []logic.NodeID, k int) ([]logic.NodeID, bool) {
	out := make([]logic.NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
		if len(out) > k {
			return nil, false
		}
	}
	if len(out)+len(a)-i+len(b)-j > k {
		return nil, false
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, true
}

// pruneCuts sorts cuts by (leaf count, leaf IDs) and removes duplicates
// and dominated cuts (supersets of an earlier, smaller cut). Sorting
// shorter sets first means any dominating cut precedes its supersets, so
// a single forward pass suffices.
func pruneCuts(cuts [][]logic.NodeID) [][]logic.NodeID {
	sort.Slice(cuts, func(i, j int) bool { return leavesLess(cuts[i], cuts[j]) })
	out := cuts[:0]
	for _, c := range cuts {
		dominated := false
		for _, kept := range out {
			if isSubset(kept, c) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// leavesLess orders leaf sets by size, then element-wise by node ID.
func leavesLess(a, b []logic.NodeID) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// isSubset reports a ⊆ b for sorted slices (equality included).
func isSubset(a, b []logic.NodeID) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// bumpStamp advances the O(1)-clear epoch for the leaf/truth-table
// scratch sets.
func (e *Enumerator) bumpStamp() {
	e.stamp++
	if e.stamp == 0 { // wrapped: reset the backing arrays once per 2^32 clears
		for i := range e.leafStamp {
			e.leafStamp[i] = 0
			e.ttStamp[i] = 0
		}
		e.stamp = 1
	}
}

// cone collects the cut's interior nodes — everything reachable from v
// without crossing a leaf — in deterministic preorder, root first (the
// match.Match Merged convention). The cut property guarantees every
// interior node is a NAND2/INV whose function the leaves determine.
func (e *Enumerator) cone(v logic.NodeID, leaves []logic.NodeID) []logic.NodeID {
	e.bumpStamp()
	for _, l := range leaves {
		e.leafStamp[l] = e.stamp
	}
	var out []logic.NodeID
	var walk func(u logic.NodeID)
	walk = func(u logic.NodeID) {
		if e.leafStamp[u] == e.stamp || e.ttStamp[u] == e.stamp {
			return // leaf, or interior node already collected
		}
		e.ttStamp[u] = e.stamp
		out = append(out, u)
		for _, f := range e.net.Nodes[u].Fanins {
			walk(f)
		}
	}
	walk(v)
	return out
}

// truthTable computes the cut function as a truth table over the leaves
// (leaf i is input variable i; row r holds the output for the assignment
// where leaf i takes bit i of r), by 64-bit parallel simulation of the
// cone: every interior NAND2/INV evaluates once on whole-table words.
func (e *Enumerator) truthTable(v logic.NodeID, leaves []logic.NodeID) uint64 {
	k := len(leaves)
	rows := 1 << uint(k)
	e.bumpStamp()
	for i, l := range leaves {
		e.leafStamp[l] = e.stamp
		var t uint64
		for r := 0; r < rows; r++ {
			if r>>uint(i)&1 == 1 {
				t |= 1 << uint(r)
			}
		}
		e.tt[l] = t
		e.ttStamp[l] = e.stamp
	}
	var eval func(u logic.NodeID) uint64
	eval = func(u logic.NodeID) uint64 {
		if e.ttStamp[u] == e.stamp {
			return e.tt[u]
		}
		f := e.net.Nodes[u].Fanins
		var t uint64
		if len(f) == 1 {
			t = ^eval(f[0])
		} else {
			t = ^(eval(f[0]) & eval(f[1]))
		}
		e.tt[u] = t
		e.ttStamp[u] = e.stamp
		return t
	}
	mask := ^uint64(0)
	if rows < 64 {
		mask = (uint64(1) << uint(rows)) - 1
	}
	return eval(v) & mask
}

// lutGate returns the synthesized LUT cell for a k-input truth table in
// this enumerator's K-LUT tile, cached per (arity, function) so equal
// cuts share one gate instance. The cover is the table's minterm
// expansion — exact, and at most 2^k cubes, all cut from one backing
// array — and the name encodes arity plus the table in hex, so mapped
// BLIF is self-describing and byte-stable.
func (e *Enumerator) lutGate(k int, tt uint64) *library.Gate {
	key := gateKey{k: k, tt: tt}
	if g, ok := e.gates[key]; ok {
		return g
	}
	n := bits.OnesCount64(tt)
	lits := make([]logic.Lit, n*k)
	cover := logic.SOP{NumInputs: k, Cubes: make([]logic.Cube, 0, n)}
	rows := 1 << uint(k)
	for r := 0; r < rows; r++ {
		if tt>>uint(r)&1 == 0 {
			continue
		}
		cube := lits[:k:k]
		lits = lits[k:]
		for i := range cube {
			if r>>uint(i)&1 == 1 {
				cube[i] = logic.LitPos
			} else {
				cube[i] = logic.LitNeg
			}
		}
		cover.Cubes = append(cover.Cubes, cube)
	}
	hexWidth := rows / 4
	if hexWidth < 1 {
		hexWidth = 1
	}
	g := library.NewLUT(fmt.Sprintf("lut%d_%0*x", k, hexWidth, tt), cover, e.k)
	e.gates[key] = g
	return g
}

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
	"cmp"
	"fmt"
	"slices"

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
	memo   [][]match.Match
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
	stack     []logic.NodeID

	// Per-node build scratch, reused across nodes: leafBuf holds merged
	// candidate leaf sets back to back, cand indexes them, idsBuf gathers
	// the ID lists of a node's matches (each cut's leaves, then its cone)
	// and idsEnd marks where each list ends. Survivors are copied out at
	// exact size.
	leafBuf []logic.NodeID
	cand    []leafSet
	idsBuf  []logic.NodeID
	idsEnd  []int
}

// leafSet is a candidate cut: its sorted leaves and their signature, the
// OR of bit (id mod 64) over the leaves. a ⊆ b implies sig(a) ⊆ sig(b),
// so a signature test rejects most non-subsets before isSubset runs.
type leafSet struct {
	leaves []logic.NodeID
	sig    uint64
}

// signature returns the leafSet signature of a leaf list.
func signature(leaves []logic.NodeID) uint64 {
	var s uint64
	for _, l := range leaves {
		s |= 1 << (uint64(l) & 63)
	}
	return s
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
		memo:      make([][]match.Match, n),
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
func (e *Enumerator) MatchesAt(v logic.NodeID) []match.Match {
	if e.memoOK[v] {
		return e.memo[v]
	}
	out := e.matchesAt(v)
	e.memo[v] = out
	e.memoOK[v] = true
	return out
}

// matchesAt builds v's match list: one Match slab and one ID backing
// that holds, per cut, its leaves (the match inputs) and then its cone.
func (e *Enumerator) matchesAt(v logic.NodeID) []match.Match {
	if t := e.cls.Type(v); t != match.TypeNand2 && t != match.TypeInv {
		return nil
	}
	cuts := e.nodeCuts(v)[1:] // the trivial cut exists only to seed fanout merges
	if len(cuts) == 0 {
		return nil
	}
	e.idsBuf = e.idsBuf[:0]
	e.idsEnd = e.idsEnd[:0]
	for _, leaves := range cuts {
		e.idsBuf = append(e.idsBuf, leaves...)
		e.idsBuf = e.cone(e.idsBuf, v, leaves)
		e.idsEnd = append(e.idsEnd, len(e.idsBuf))
	}
	ids := slices.Clone(e.idsBuf)
	out := make([]match.Match, len(cuts))
	at := 0
	for i, leaves := range cuts {
		end := e.idsEnd[i]
		out[i] = match.NewMatch(e.lutGate(len(leaves), e.truthTable(v, leaves)), ids[at:end:end])
		at = end
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
	var out [][]logic.NodeID
	switch e.cls.Type(v) {
	case match.TypeInv:
		// Every cut of the fanin is a cut of v (same leaves, one more
		// interior node). The candidates alias the fanin's leaf arrays:
		// cut leaf sets are immutable once built.
		fc := e.nodeCuts(e.net.Nodes[v].Fanins[0])
		e.cand = e.cand[:0]
		for _, c := range fc {
			e.cand = append(e.cand, leafSet{leaves: c, sig: signature(c)})
		}
		kept := selectCuts(pruneCuts(e.cand), e.k)
		out = make([][]logic.NodeID, 1+len(kept))
		out[0] = []logic.NodeID{v}
		for i, c := range kept {
			out[1+i] = c.leaves
		}
	case match.TypeNand2:
		f := e.net.Nodes[v].Fanins
		c0, c1 := e.nodeCuts(f[0]), e.nodeCuts(f[1])
		// Candidates are merged back to back into leafBuf. A candidate
		// keeps pointing at the array it was merged into if a later
		// append moves leafBuf; nothing below a candidate is rewritten.
		e.leafBuf = e.leafBuf[:0]
		e.cand = e.cand[:0]
		for _, a := range c0 {
			for _, b := range c1 {
				at := len(e.leafBuf)
				var ok bool
				if e.leafBuf, ok = mergeLeaves(e.leafBuf, a, b, e.k); ok {
					u := e.leafBuf[at:len(e.leafBuf):len(e.leafBuf)]
					e.cand = append(e.cand, leafSet{leaves: u, sig: signature(u)})
				}
			}
		}
		kept := selectCuts(pruneCuts(e.cand), e.k)
		// Copy the survivors and the trivial cut into one exact backing.
		n := 1
		for _, c := range kept {
			n += len(c.leaves)
		}
		backing := make([]logic.NodeID, n)
		backing[0] = v
		out = make([][]logic.NodeID, 1+len(kept))
		out[0] = backing[0:1:1]
		at := 1
		for i, c := range kept {
			end := at + copy(backing[at:], c.leaves)
			out[1+i] = backing[at:end:end]
			at = end
		}
	default:
		// PIs and foreign nodes contribute only themselves as a leaf.
		out = [][]logic.NodeID{{v}}
	}
	e.cuts[v] = out
	e.cutsOK[v] = true
	return out
}

// selectCuts enforces the maxCuts cap with leaf-count diversity: cuts
// (already in (leaf count, leaf IDs) order from pruneCuts) are taken
// round-robin across leaf-count groups until the cap fills, then the
// survivors are returned in the original order. Each group is a
// contiguous run and round r takes a group's r-th cut, so the survivors
// are a prefix of every group: counting the takes per group is enough,
// and the result is compacted in place.
func selectCuts(cuts []leafSet, k int) []leafSet {
	if len(cuts) <= maxCuts {
		return cuts
	}
	var start, size, take [MaxK]int
	for i := len(cuts) - 1; i >= 0; i-- {
		w := len(cuts[i].leaves) - 1
		start[w] = i
		size[w]++
	}
	kept := 0
	for round := 0; kept < maxCuts; round++ {
		took := false
		for w := 0; w < k && kept < maxCuts; w++ {
			if round < size[w] {
				take[w]++
				kept++
				took = true
			}
		}
		if !took {
			break
		}
	}
	out := cuts[:0]
	for w := 0; w < k; w++ {
		out = append(out, cuts[start[w]:start[w]+take[w]]...)
	}
	return out
}

// mergeLeaves appends the union of two sorted leaf sets to dst,
// rejecting unions wider than k: a rejected merge returns dst unchanged.
// The inputs are never mutated.
func mergeLeaves(dst, a, b []logic.NodeID, k int) ([]logic.NodeID, bool) {
	base := len(dst)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
		if len(dst)-base > k {
			return dst[:base], false
		}
	}
	if len(dst)-base+len(a)-i+len(b)-j > k {
		return dst[:base], false
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst, true
}

// pruneCuts sorts cuts by (leaf count, leaf IDs) and removes duplicates
// and dominated cuts (supersets of an earlier, smaller cut), in place.
// Sorting shorter sets first means any dominating cut precedes its
// supersets, so a single forward pass suffices.
func pruneCuts(cuts []leafSet) []leafSet {
	slices.SortFunc(cuts, func(a, b leafSet) int { return compareLeaves(a.leaves, b.leaves) })
	out := cuts[:0]
	for _, c := range cuts {
		dominated := false
		for _, kept := range out {
			if kept.sig&^c.sig == 0 && isSubset(kept.leaves, c.leaves) {
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

// compareLeaves orders leaf sets by size, then element-wise by node ID.
func compareLeaves(a, b []logic.NodeID) int {
	if len(a) != len(b) {
		return cmp.Compare(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return cmp.Compare(a[i], b[i])
		}
	}
	return 0
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

// cone appends the cut's interior nodes — everything reachable from v
// without crossing a leaf — to dst in deterministic preorder, root first
// (the match.Match Merged convention). The explicit stack pushes fanins
// in reverse and tests a node when it pops, so it visits exactly as the
// recursive preorder walk does. The cut property guarantees every
// interior node is a NAND2/INV whose function the leaves determine.
func (e *Enumerator) cone(dst []logic.NodeID, v logic.NodeID, leaves []logic.NodeID) []logic.NodeID {
	e.bumpStamp()
	for _, l := range leaves {
		e.leafStamp[l] = e.stamp
	}
	stack := append(e.stack[:0], v)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.leafStamp[u] == e.stamp || e.ttStamp[u] == e.stamp {
			continue // leaf, or interior node already collected
		}
		e.ttStamp[u] = e.stamp
		dst = append(dst, u)
		f := e.net.Nodes[u].Fanins
		for i := len(f) - 1; i >= 0; i-- {
			stack = append(stack, f[i])
		}
	}
	e.stack = stack
	return dst
}

// truthTable computes the cut function as a truth table over the leaves
// (leaf i is input variable i, in logic.VarTT's row convention), by
// 64-bit parallel simulation of the cone: every interior NAND2/INV
// evaluates once on whole-table words, in the postorder of an explicit
// stack. Rows past 2^k are don't-cares
// that the final mask clears; every operation is bitwise, so they never
// reach the kept rows.
func (e *Enumerator) truthTable(v logic.NodeID, leaves []logic.NodeID) uint64 {
	e.bumpStamp()
	for i, l := range leaves {
		e.tt[l] = logic.VarTT[i]
		e.ttStamp[l] = e.stamp
	}
	stack := append(e.stack[:0], v)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		if e.ttStamp[u] == e.stamp {
			stack = stack[:len(stack)-1]
			continue
		}
		f := e.net.Nodes[u].Fanins
		ready := true
		for _, x := range f {
			if e.ttStamp[x] != e.stamp {
				stack = append(stack, x)
				ready = false
			}
		}
		if !ready {
			continue // u stays below its fanins and evaluates after them
		}
		stack = stack[:len(stack)-1]
		if len(f) == 1 {
			e.tt[u] = ^e.tt[f[0]]
		} else {
			e.tt[u] = ^(e.tt[f[0]] & e.tt[f[1]])
		}
		e.ttStamp[u] = e.stamp
	}
	e.stack = stack
	return e.tt[v] & logic.RowMask(len(leaves))
}

// lutGate returns the synthesized LUT cell for a k-input truth table in
// this enumerator's K-LUT tile, cached per (arity, function) so equal
// cuts share one gate instance. The name encodes arity plus the table in
// hex, so mapped BLIF is self-describing and byte-stable.
func (e *Enumerator) lutGate(k int, tt uint64) *library.Gate {
	key := gateKey{k: k, tt: tt}
	if g, ok := e.gates[key]; ok {
		return g
	}
	hexWidth := max(1, 1<<uint(k)/4)
	g := library.NewLUTWord(fmt.Sprintf("lut%d_%0*x", k, hexWidth, tt), k, tt, e.k)
	e.gates[key] = g
	return g
}

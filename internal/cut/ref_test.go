package cut

import (
	"slices"
	"sort"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
)

// refEnum is the per-cut reference for the enumerator: every merged
// leaf set is a fresh slice, pruning sorts with sort.Slice and compares
// leaf sets without signatures, the cap keeps a flag per cut, and the
// cone and truth-table walks recurse. Gates come from the enumerator
// under test, so equal functions compare as equal pointers.
type refEnum struct {
	e    *Enumerator
	cuts map[logic.NodeID][][]logic.NodeID
}

func (r *refEnum) matchesAt(v logic.NodeID) []match.Match {
	if t := r.e.cls.Type(v); t != match.TypeNand2 && t != match.TypeInv {
		return nil
	}
	var out []match.Match
	for _, leaves := range r.nodeCuts(v) {
		if len(leaves) == 1 && leaves[0] == v {
			continue
		}
		g := r.e.lutGate(len(leaves), r.truthTable(v, leaves))
		out = append(out, match.NewMatch(g, append(slices.Clone(leaves), r.cone(v, leaves)...)))
	}
	return out
}

func (r *refEnum) nodeCuts(v logic.NodeID) [][]logic.NodeID {
	if c, ok := r.cuts[v]; ok {
		return c
	}
	trivial := []logic.NodeID{v}
	var merged [][]logic.NodeID
	switch r.e.cls.Type(v) {
	case match.TypeInv:
		merged = append(merged, r.nodeCuts(r.e.net.Nodes[v].Fanins[0])...)
	case match.TypeNand2:
		f := r.e.net.Nodes[v].Fanins
		for _, a := range r.nodeCuts(f[0]) {
			for _, b := range r.nodeCuts(f[1]) {
				if u, ok := mergeLeaves(nil, a, b, r.e.k); ok {
					merged = append(merged, u)
				}
			}
		}
	default:
		r.cuts[v] = [][]logic.NodeID{trivial}
		return r.cuts[v]
	}
	merged = refSelectCuts(refPruneCuts(merged), r.e.k)
	r.cuts[v] = append([][]logic.NodeID{trivial}, merged...)
	return r.cuts[v]
}

func refPruneCuts(cuts [][]logic.NodeID) [][]logic.NodeID {
	sort.Slice(cuts, func(i, j int) bool { return compareLeaves(cuts[i], cuts[j]) < 0 })
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

func refSelectCuts(cuts [][]logic.NodeID, k int) [][]logic.NodeID {
	if len(cuts) <= maxCuts {
		return cuts
	}
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
			if i := groups[w].start + round; i < groups[w].end {
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

func (r *refEnum) cone(v logic.NodeID, leaves []logic.NodeID) []logic.NodeID {
	leaf := make(map[logic.NodeID]bool)
	for _, l := range leaves {
		leaf[l] = true
	}
	seen := make(map[logic.NodeID]bool)
	var out []logic.NodeID
	var walk func(u logic.NodeID)
	walk = func(u logic.NodeID) {
		if leaf[u] || seen[u] {
			return
		}
		seen[u] = true
		out = append(out, u)
		for _, f := range r.e.net.Nodes[u].Fanins {
			walk(f)
		}
	}
	walk(v)
	return out
}

func (r *refEnum) truthTable(v logic.NodeID, leaves []logic.NodeID) uint64 {
	rows := 1 << uint(len(leaves))
	tt := make(map[logic.NodeID]uint64)
	for i, l := range leaves {
		var t uint64
		for row := 0; row < rows; row++ {
			if row>>uint(i)&1 == 1 {
				t |= 1 << uint(row)
			}
		}
		tt[l] = t
	}
	var eval func(u logic.NodeID) uint64
	eval = func(u logic.NodeID) uint64 {
		if t, ok := tt[u]; ok {
			return t
		}
		f := r.e.net.Nodes[u].Fanins
		var t uint64
		if len(f) == 1 {
			t = ^eval(f[0])
		} else {
			t = ^(eval(f[0]) & eval(f[1]))
		}
		tt[u] = t
		return t
	}
	mask := ^uint64(0)
	if rows < 64 {
		mask = uint64(1)<<uint(rows) - 1
	}
	return eval(v) & mask
}

// TestCutsMatchReference: on every node of the fifteen paper circuits,
// at K=4 and K=6, the enumerator's cut list and match list equal the
// reference's, element for element.
func TestCutsMatchReference(t *testing.T) {
	lib := library.Big()
	for _, p := range bench.Profiles() {
		res, err := decomp.Premap(bench.Generate(p))
		if err != nil {
			t.Fatal(err)
		}
		sub := res.Inchoate
		for _, k := range []int{4, 6} {
			e := NewEnumerator(sub, lib, k)
			ref := &refEnum{e: NewEnumerator(sub, lib, k), cuts: make(map[logic.NodeID][][]logic.NodeID)}
			ref.e.gates = e.gates // one gate cache: equal functions share a pointer
			for _, nd := range sub.Nodes {
				if nd == nil {
					continue
				}
				v := nd.ID
				got, want := e.MatchesAt(v), ref.matchesAt(v)
				if !slices.EqualFunc(e.nodeCuts(v), ref.nodeCuts(v), slices.Equal[[]logic.NodeID]) {
					t.Fatalf("%s K=%d node %s: cuts %v, reference %v", p.Name, k, nd.Name, e.nodeCuts(v), ref.nodeCuts(v))
				}
				if len(got) != len(want) || (got == nil) != (want == nil) {
					t.Fatalf("%s K=%d node %s: %d matches, reference %d", p.Name, k, nd.Name, len(got), len(want))
				}
				for i := range got {
					if got[i].Gate != want[i].Gate || !slices.Equal(got[i].Inputs(), want[i].Inputs()) ||
						!slices.Equal(got[i].Merged(), want[i].Merged()) {
						t.Fatalf("%s K=%d node %s match %d: %v, reference %v", p.Name, k, nd.Name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMatchesAtAllocsConstant pins the LUT backend's per-node
// allocations once the scratch and the gate cache are warm: a Match
// slab and one ID backing.
func TestMatchesAtAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	sub := subjectFor(t, "C432")
	e := NewEnumerator(sub, library.Big(), 6)
	seen := make(map[int]bool)
	for _, nd := range sub.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		n := len(e.MatchesAt(nd.ID))
		if n == 0 || seen[n] {
			continue
		}
		seen[n] = true
		if allocs := testing.AllocsPerRun(5, func() { e.matchesAt(nd.ID) }); allocs != 2 {
			t.Errorf("node %s (%d matches): %v allocations, want 2", nd.Name, n, allocs)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("only %d distinct match counts exercised", len(seen))
	}
}

package match

import (
	"slices"
	"strings"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
)

// refAtNode is the per-match reference for atNode: every candidate is
// its own Match with a fresh ID list, deduplicated by a scan
// over every earlier candidate, and the whole list is sorted by (gate
// name, binding) at the end, gates visited in library order. It shares
// only the backtracking search with atNode.
func refAtNode(mt *Matcher, lib *library.Library, v logic.NodeID) []Match {
	if t := mt.cls.Type(v); t != TypeNand2 && t != TypeInv {
		return nil
	}
	var out []Match
	for _, g := range lib.Gates {
		for _, p := range g.Patterns {
			mt.bind = make([]logic.NodeID, g.NumInputs)
			for i := range mt.bind {
				mt.bind[i] = logic.InvalidNode
			}
			mt.merged = mt.merged[:0]
			mt.clearMerged()
			mt.match(v, p.Root, func() {
				for _, b := range mt.bind {
					if mt.inMerged(b) {
						return
					}
				}
				for _, prev := range out {
					if prev.Gate == g && slices.Equal(prev.Inputs(), mt.bind) {
						return
					}
				}
				ids := append(slices.Clone(mt.bind), mt.merged...)
				out = append(out, NewMatch(g, ids))
			})
		}
	}
	slices.SortFunc(out, func(a, b Match) int {
		if c := strings.Compare(a.Gate.Name, b.Gate.Name); c != 0 {
			return c
		}
		return compareBindings(a.Inputs(), b.Inputs())
	})
	return out
}

// paperSubjects premaps the fifteen Table 1 circuits and any extra
// named profiles.
func paperSubjects(t testing.TB, extra ...string) map[string]*logic.Network {
	t.Helper()
	profiles := bench.Profiles()
	for _, name := range extra {
		profiles = append(profiles, mustProfile(t, name))
	}
	subs := make(map[string]*logic.Network)
	for _, p := range profiles {
		res, err := decomp.Premap(bench.Generate(p))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		subs[p.Name] = res.Inchoate
	}
	return subs
}

// sameMatches reports where two match lists differ, element for element:
// the same length (and nil-ness), and at each position the same gate,
// inputs and merged nodes.
func sameMatches(got, want []Match) (int, bool) {
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return -1, false
	}
	for i := range got {
		if got[i].Gate != want[i].Gate || !slices.Equal(got[i].Inputs(), want[i].Inputs()) ||
			!slices.Equal(got[i].Merged(), want[i].Merged()) {
			return i, false
		}
	}
	return 0, true
}

// TestAtNodeMatchesReference: on every node of the fifteen paper
// circuits, the slab-built match list equals the reference's.
func TestAtNodeMatchesReference(t *testing.T) {
	lib := library.Big()
	for name, sub := range paperSubjects(t) {
		mt, ref := NewMatcher(sub, lib), NewMatcher(sub, lib)
		for _, nd := range sub.Nodes {
			if nd == nil {
				continue
			}
			got, want := mt.AtNode(nd.ID), refAtNode(ref, lib, nd.ID)
			if i, ok := sameMatches(got, want); !ok {
				t.Fatalf("%s node %s: match lists differ at %d:\ngot  %v\nwant %v", name, nd.Name, i, got, want)
			}
		}
	}
}

// TestEnumerateMatchesAtNode: on every node of the fifteen paper
// circuits and mid5k, the scratch-built Enumerate list holds the same
// gates, bindings and merged lists, in the same order, as AtNode.
// Enumerate runs on its own matcher first, so AtNode's memo cannot feed
// it, and every node's list is compared before the next call reuses it.
func TestEnumerateMatchesAtNode(t *testing.T) {
	lib := library.Big()
	for name, sub := range paperSubjects(t, "mid5k") {
		mt, memo := NewMatcher(sub, lib), NewMatcher(sub, lib)
		for _, nd := range sub.Nodes {
			if nd == nil {
				continue
			}
			got, want := mt.Enumerate(nd.ID), memo.AtNode(nd.ID)
			if i, ok := sameMatches(got, want); !ok {
				t.Fatalf("%s node %s: match lists differ at %d:\ngot  %v\nwant %v", name, nd.Name, i, got, want)
			}
		}
	}
}

// TestAtNodeAllocsConstant pins atNode's allocations per node: a Match
// slab and one ID backing, whatever the match count, once the scratch
// has grown. Enumerate then allocates nothing.
func TestAtNodeAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	res, err := decomp.Premap(bench.Generate(mustProfile(t, "C432")))
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Inchoate
	mt := NewMatcher(sub, library.Big())
	seen := make(map[int]bool) // match counts covered
	for _, nd := range sub.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		n := len(mt.atNode(nd.ID))
		if n == 0 || seen[n] {
			continue
		}
		seen[n] = true
		if allocs := testing.AllocsPerRun(5, func() { mt.atNode(nd.ID) }); allocs != 2 {
			t.Errorf("node %s (%d matches): %v allocations, want 2", nd.Name, n, allocs)
		}
		if allocs := testing.AllocsPerRun(5, func() { mt.Enumerate(nd.ID) }); allocs != 0 {
			t.Errorf("node %s (%d matches): Enumerate made %v allocations, want 0", nd.Name, n, allocs)
		}
	}
	if len(seen) < 3 {
		t.Fatalf("only %d distinct match counts exercised", len(seen))
	}
}

func mustProfile(t testing.TB, name string) bench.Profile {
	t.Helper()
	p, ok := bench.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	return p
}

package cut

import (
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
)

// subjectFor premaps a generated benchmark into its NAND2/INV subject graph.
func subjectFor(t testing.TB, name string) *logic.Network {
	t.Helper()
	p, ok := bench.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	res, err := decomp.Premap(bench.Generate(p))
	if err != nil {
		t.Fatal(err)
	}
	return res.Inchoate
}

func randomSubject(t *testing.T, seed int64) *logic.Network {
	t.Helper()
	res, err := decomp.Premap(bench.Random(seed, 8, 5, 60, 4))
	if err != nil {
		t.Fatal(err)
	}
	return res.Inchoate
}

// TestKFeasibilityProperties is the property harness of the enumerator:
// on a real benchmark and a spread of random subjects, for K=4 and K=6,
// every emitted match must be a K-feasible, irredundant, deterministic
// cut whose LUT reproduces the cone function.
func TestKFeasibilityProperties(t *testing.T) {
	subjects := map[string]*logic.Network{"b9": subjectFor(t, "b9")}
	for seed := int64(1); seed <= 4; seed++ {
		subjects[string(rune('r'))+string(rune('0'+seed))] = randomSubject(t, seed)
	}
	for name, sub := range subjects {
		for _, k := range []int{4, 6} {
			e := NewEnumerator(sub, library.Big(), k)
			cls := match.Classify(sub)
			total := 0
			for _, nd := range sub.Nodes {
				if nd == nil {
					continue
				}
				v := nd.ID
				ms := e.MatchesAt(v)
				if tp := cls.Type(v); tp != match.TypeNand2 && tp != match.TypeInv {
					if ms != nil {
						t.Fatalf("%s K=%d: non-base node %s has %d matches", name, k, nd.Name, len(ms))
					}
					continue
				}
				if len(ms) == 0 {
					t.Fatalf("%s K=%d: base node %s has no matches (the 1-leaf INV/NAND cut always exists)", name, k, nd.Name)
				}
				total += len(ms)
				for i, m := range ms {
					// K-feasibility and leaf-set hygiene.
					if len(m.Inputs()) == 0 || len(m.Inputs()) > k {
						t.Fatalf("%s K=%d node %s: cut width %d outside [1,%d]", name, k, nd.Name, len(m.Inputs()), k)
					}
					for j := 1; j < len(m.Inputs()); j++ {
						if m.Inputs()[j-1] >= m.Inputs()[j] {
							t.Fatalf("%s K=%d node %s: leaves not strictly ascending: %v", name, k, nd.Name, m.Inputs())
						}
					}
					for _, l := range m.Inputs() {
						if l == v {
							t.Fatalf("%s K=%d node %s: root appears as its own leaf", name, k, nd.Name)
						}
					}
					if len(m.Merged()) == 0 || m.Merged()[0] != v {
						t.Fatalf("%s K=%d node %s: cone must start at the root, got %v", name, k, nd.Name, m.Merged())
					}
					// Deterministic (leaf count, leaf IDs) order.
					if i > 0 && compareLeaves(ms[i-1].Inputs(), m.Inputs()) >= 0 {
						t.Fatalf("%s K=%d node %s: match order violated at %d: %v !< %v",
							name, k, nd.Name, i, ms[i-1].Inputs(), m.Inputs())
					}
					// Irredundance: no other cut's leaves contain this cut's.
					for j, o := range ms {
						if j != i && isSubset(m.Inputs(), o.Inputs()) {
							t.Fatalf("%s K=%d node %s: cut %v dominates kept cut %v",
								name, k, nd.Name, m.Inputs(), o.Inputs())
						}
					}
					// The synthesized LUT computes the cone function.
					if err := match.Verify(sub, &m); err != nil {
						t.Fatalf("%s K=%d node %s: %v", name, k, nd.Name, err)
					}
					if m.Gate.NumInputs != len(m.Inputs()) {
						t.Fatalf("%s K=%d node %s: gate arity %d != cut width %d",
							name, k, nd.Name, m.Gate.NumInputs, len(m.Inputs()))
					}
				}
			}
			if total == 0 {
				t.Fatalf("%s K=%d: enumerator produced no matches at all", name, k)
			}
		}
	}
}

// TestMatchesMemoized pins the Backend contract the cover DP relies on:
// after the first call, MatchesAt returns the identical slice.
func TestMatchesMemoized(t *testing.T) {
	sub := subjectFor(t, "b9")
	e := NewEnumerator(sub, library.Big(), 4)
	for _, nd := range sub.Nodes {
		if nd == nil {
			continue
		}
		a := e.MatchesAt(nd.ID)
		b := e.MatchesAt(nd.ID)
		if len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
			t.Fatalf("node %s: MatchesAt not memoized", nd.Name)
		}
	}
}

// TestGateCachePointerStability: equal-function cuts share one gate
// instance, so the netlist builder and the BLIF writer see a stable,
// deduplicated gate set.
func TestGateCachePointerStability(t *testing.T) {
	sub := subjectFor(t, "b9")
	e := NewEnumerator(sub, library.Big(), 4)
	byName := map[string]*library.Gate{}
	for _, nd := range sub.Nodes {
		if nd == nil {
			continue
		}
		for _, m := range e.MatchesAt(nd.ID) {
			if prev, ok := byName[m.Gate.Name]; ok && prev != m.Gate {
				t.Fatalf("gate %s has two instances", m.Gate.Name)
			}
			byName[m.Gate.Name] = m.Gate
		}
	}
}

// TestLUTGateAllocs pins the cost of synthesizing a LUT cell: a cache
// miss allocates at most four times (the gate, its unateness, its name
// and the table boxed for formatting the name), whatever the arity and
// the table's popcount,
// and LUTs of one tile K share one timing backing, across enumerators
// too.
func TestLUTGateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	sub := subjectFor(t, "b9")
	e := NewEnumerator(sub, library.Big(), 6)
	for k := 1; k <= 6; k++ {
		mask := logic.RowMask(k)
		for _, tt := range []uint64{1, 0x5a5a5a5a5a5a5a5a, mask &^ 1, mask} {
			tt &= mask
			if allocs := testing.AllocsPerRun(20, func() {
				clear(e.gates)
				e.lutGate(k, tt)
			}); allocs > 4 {
				t.Errorf("lutGate(%d, %#x): %v allocations, want at most 4", k, tt, allocs)
			}
		}
	}
	a := e.lutGate(6, 0x8000000000000000)
	b := NewEnumerator(sub, library.Big(), 6).lutGate(2, 0x6)
	if &a.Timing[0] != &b.Timing[0] {
		t.Error("two 6-LUT tile gates have separate timing backings")
	}
}

func TestPruneCutsDropsSupersetsAndDuplicates(t *testing.T) {
	n := func(ids ...logic.NodeID) leafSet { return leafSet{leaves: ids, sig: signature(ids)} }
	got := pruneCuts([]leafSet{
		n(1, 2, 3), // dominated by {1,2}
		n(1, 2),
		n(1, 2), // duplicate
		n(2, 3),
		n(4, 5, 6), // untouched
		n(65, 66),  // {1,2}'s signature, not a superset of it
	})
	want := []leafSet{n(1, 2), n(2, 3), n(65, 66), n(4, 5, 6)}
	if len(got) != len(want) {
		t.Fatalf("pruneCuts kept %d cuts, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if compareLeaves(got[i].leaves, want[i].leaves) != 0 {
			t.Fatalf("cut %d = %v, want %v", i, got[i].leaves, want[i].leaves)
		}
	}
}

// TestSelectCutsDiversity: the cap must keep cuts of every leaf count,
// not just the narrowest — wide cuts are how a 6-LUT earns its keep.
func TestSelectCutsDiversity(t *testing.T) {
	var cuts []leafSet
	for w := 1; w <= 4; w++ {
		for i := 0; i < 10; i++ {
			c := make([]logic.NodeID, w)
			for j := range c {
				c[j] = logic.NodeID(100*w + 10*i + j)
			}
			cuts = append(cuts, leafSet{leaves: c, sig: signature(c)})
		}
	}
	got := selectCuts(cuts, 4)
	if len(got) != maxCuts {
		t.Fatalf("selectCuts kept %d, want %d", len(got), maxCuts)
	}
	byWidth := map[int]int{}
	for _, c := range got {
		byWidth[len(c.leaves)]++
	}
	for w := 1; w <= 4; w++ {
		if byWidth[w] == 0 {
			t.Fatalf("cap evicted every %d-leaf cut: %v", w, byWidth)
		}
	}
}

func TestMergeLeavesRejectsWide(t *testing.T) {
	a := []logic.NodeID{1, 3, 5}
	b := []logic.NodeID{2, 4, 6}
	if u, ok := mergeLeaves(nil, a, b, 6); !ok || len(u) != 6 {
		t.Fatalf("mergeLeaves(k=6) = %v, %v", u, ok)
	}
	if _, ok := mergeLeaves(nil, a, b, 5); ok {
		t.Fatalf("mergeLeaves(k=5) accepted a 6-leaf union")
	}
	if u, ok := mergeLeaves(nil, a, a, 3); !ok || len(u) != 3 {
		t.Fatalf("mergeLeaves(self) = %v, %v (duplicates must collapse)", u, ok)
	}
	// The union is appended to dst; a rejected merge leaves dst as it was.
	dst := []logic.NodeID{9}
	if u, ok := mergeLeaves(dst, a, b, 6); !ok || len(u) != 7 || u[0] != 9 || u[1] != 1 {
		t.Fatalf("mergeLeaves(dst, k=6) = %v, %v", u, ok)
	}
	if u, ok := mergeLeaves(dst, a, b, 5); ok || len(u) != 1 || u[0] != 9 {
		t.Fatalf("rejected mergeLeaves(dst) = %v, %v", u, ok)
	}
}

func TestNewEnumeratorKRange(t *testing.T) {
	sub := subjectFor(t, "b9")
	for _, k := range []int{1, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEnumerator(K=%d) did not panic", k)
				}
			}()
			NewEnumerator(sub, library.Big(), k)
		}()
	}
}

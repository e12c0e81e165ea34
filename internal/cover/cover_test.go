package cover

import (
	"testing"

	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
)

// baseCoverOracle maps every subject node to its base cell (nand2/inv).
func baseCoverOracle(t *testing.T, sub *logic.Network, lib *library.Library) func(logic.NodeID) *match.Match {
	t.Helper()
	mt := match.NewMatcher(sub, lib)
	table := make(map[logic.NodeID]*match.Match)
	for _, nd := range sub.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		ms := mt.AtNode(nd.ID)
		for i := range ms {
			if ms[i].Gate.Name == "nand2" || ms[i].Gate.Name == "inv" {
				table[nd.ID] = &ms[i]
				break
			}
		}
		if table[nd.ID] == nil {
			t.Fatalf("no base match at %s", nd.Name)
		}
	}
	return func(v logic.NodeID) *match.Match { return table[v] }
}

func subject(t *testing.T) (*logic.Network, *logic.Network) {
	t.Helper()
	src := logic.New("t")
	a := src.AddPI("a")
	b := src.AddPI("b")
	c := src.AddPI("c")
	x := src.AddLogic("x", []logic.NodeID{a.ID, b.ID}, logic.AndSOP(2))
	y := src.AddLogic("y", []logic.NodeID{x.ID, c.ID}, logic.OrSOP(2))
	src.MarkPO(y.ID, "y")
	src.MarkPO(x.ID, "x2") // x observable under a second name
	res, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	return src, res.Inchoate
}

func TestBuildNetlistBaseCover(t *testing.T) {
	src, sub := subject(t)
	lib := library.Big()
	nl, refs, err := BuildNetlist(sub, baseCoverOracle(t, sub, lib), "t")
	if err != nil {
		t.Fatal(err)
	}
	// One cell per subject logic node reachable from POs.
	if len(nl.Cells) != sub.NumLogic() {
		t.Errorf("%d cells for %d subject nodes under the base cover",
			len(nl.Cells), sub.NumLogic())
	}
	if len(refs) == 0 {
		t.Error("no refs returned")
	}
	// Functional equivalence.
	for r := 0; r < 8; r++ {
		in := map[string]bool{"a": r&1 != 0, "b": r&2 != 0, "c": r&4 != 0}
		want, _ := src.Eval(in)
		got, err := nl.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("output %s differs at row %d", k, r)
			}
		}
	}
}

func TestBuildNetlistMissingMatch(t *testing.T) {
	_, sub := subject(t)
	_, _, err := BuildNetlist(sub, func(logic.NodeID) *match.Match { return nil }, "t")
	if err == nil {
		t.Error("missing match not reported")
	}
}

func TestNeededSetStopsAtPIs(t *testing.T) {
	_, sub := subject(t)
	lib := library.Big()
	oracle := baseCoverOracle(t, sub, lib)
	needed, err := NeededSet(sub, oracle, sub.POs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := range needed {
		if sub.Nodes[id].Kind != logic.KindLogic {
			t.Errorf("PI %d in needed set", id)
		}
	}
	if len(needed) != sub.NumLogic() {
		t.Errorf("needed %d of %d nodes under base cover", len(needed), sub.NumLogic())
	}
}

// TestNeededSetStopsAtKnown: a known node is neither returned nor
// expanded, so with every fanin of a PO driver known the walk from that
// driver returns the driver alone.
func TestNeededSetStopsAtKnown(t *testing.T) {
	_, sub := subject(t)
	oracle := baseCoverOracle(t, sub, library.Big())
	for _, po := range sub.POs {
		if sub.Nodes[po].Kind != logic.KindLogic {
			continue
		}
		known := func(v logic.NodeID) bool { return v != po }
		needed, err := NeededSet(sub, oracle, []logic.NodeID{po}, known)
		if err != nil {
			t.Fatal(err)
		}
		if len(needed) != 1 || !needed[po] {
			t.Errorf("needed from %d with the rest known = %v, want only %d", po, needed, po)
		}
	}
}

func TestBuildNetlistWrongRoot(t *testing.T) {
	_, sub := subject(t)
	lib := library.Big()
	oracle := baseCoverOracle(t, sub, lib)
	// Return a match rooted elsewhere: take the PO root's match for all.
	var poMatch *match.Match
	for _, po := range sub.POs {
		if sub.Nodes[po].Kind == logic.KindLogic {
			poMatch = oracle(po)
			break
		}
	}
	bad := func(v logic.NodeID) *match.Match { return poMatch }
	if _, _, err := BuildNetlist(sub, bad, "t"); err == nil {
		t.Error("mis-rooted match not rejected")
	}
}

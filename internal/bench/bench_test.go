package bench

import (
	"sort"
	"testing"

	"lily/internal/logic"
)

func TestAllProfilesGenerate(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			n := Generate(p)
			if err := n.Check(); err != nil {
				t.Fatalf("check: %v", err)
			}
			s := n.Stat()
			if s.PIs != p.PIs {
				t.Errorf("PIs = %d, want %d", s.PIs, p.PIs)
			}
			if s.POs != p.POs {
				t.Errorf("POs = %d, want %d", s.POs, p.POs)
			}
			// Node budget: sweeping and PO combining may shift the count a
			// little, but it must stay within 25% of the target.
			lo, hi := p.Nodes*3/4, p.Nodes*5/4+8
			if s.Logic < lo || s.Logic > hi {
				t.Errorf("node count %d outside [%d,%d]", s.Logic, lo, hi)
			}
			if s.MaxFanin > p.MaxFanin {
				t.Errorf("max fanin %d > %d", s.MaxFanin, p.MaxFanin)
			}
			if s.Depth < 3 {
				t.Errorf("depth %d too shallow for realistic logic", s.Depth)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("C432")
	a := Generate(p)
	b := Generate(p)
	an, bn := sortedNames(a), sortedNames(b)
	if len(an) != len(bn) {
		t.Fatalf("node counts differ: %d vs %d", len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("names differ at %d: %s vs %s", i, an[i], bn[i])
		}
	}
	// Same functional behaviour on a probe vector.
	in := make(map[string]bool)
	for i, pi := range a.PIs {
		in[a.Nodes[pi].Name] = i%3 == 0
	}
	oa, err := a.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := b.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	for k := range oa {
		if oa[k] != ob[k] {
			t.Fatalf("output %s differs between identical seeds", k)
		}
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("C5315"); !ok {
		t.Error("C5315 missing")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("bogus profile found")
	}
}

func TestTable2NamesSubset(t *testing.T) {
	for _, name := range Table2Names() {
		if _, ok := ProfileByName(name); !ok {
			t.Errorf("Table 2 name %s not in profile set", name)
		}
	}
	if len(Table2Names()) != 12 {
		t.Errorf("Table 2 has %d circuits, want 12", len(Table2Names()))
	}
}

func TestRandomParametric(t *testing.T) {
	n := Random(7, 10, 5, 50, 4)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	if len(n.PIs) != 10 || len(n.POs) != 5 {
		t.Errorf("pi/po = %d/%d", len(n.PIs), len(n.POs))
	}
}

func TestGeneratedNetworksHaveReconvergence(t *testing.T) {
	// Multi-fanout internal nodes are what make DAG covering (and the
	// paper's dove/hawk machinery) interesting; the generator must
	// produce a healthy share of them.
	n := Generate(profiles[5]) // C5315
	multi := 0
	total := 0
	for _, nd := range n.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		total++
		if n.FanoutCount(nd.ID) > 1 {
			multi++
		}
	}
	if multi*10 < total {
		t.Errorf("only %d/%d nodes have fanout > 1", multi, total)
	}
}

func TestGeneratedSuiteScales(t *testing.T) {
	// Relative ordering of circuit sizes should track the paper's areas:
	// C5315 and apex3 are the giants, misex1 the smallest.
	sizes := map[string]int{}
	for _, p := range Profiles() {
		sizes[p.Name] = Generate(p).NumLogic()
	}
	if !(sizes["misex1"] < sizes["b9"] && sizes["b9"] < sizes["C1908"]) {
		t.Errorf("small-circuit ordering broken: %v", sizes)
	}
	if !(sizes["C5315"] > sizes["C3540"] && sizes["apex3"] > sizes["C3540"]) {
		t.Errorf("large-circuit ordering broken: %v", sizes)
	}
}

// sortedNames returns the names of all live nodes, sorted.
func sortedNames(n *logic.Network) []string {
	var names []string
	for _, nd := range n.Nodes {
		if nd != nil {
			names = append(names, nd.Name)
		}
	}
	sort.Strings(names)
	return names
}

package decomp

import (
	"math/rand"
	"testing"

	"lily/internal/bench"
	"lily/internal/geom"
	"lily/internal/logic"
)

// evalBoth simulates src and its premapped form on the same random vectors
// and fails the test on any mismatch.
func evalBoth(t *testing.T, src, sub *logic.Network, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < trials; k++ {
		in := make(map[string]bool, len(src.PIs))
		for _, pi := range src.PIs {
			in[src.Nodes[pi].Name] = rng.Intn(2) == 1
		}
		want, err := src.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sub.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for name := range want {
			if want[name] != got[name] {
				t.Fatalf("trial %d: output %s differs (src %v, subject %v)",
					k, name, want[name], got[name])
			}
		}
	}
}

func TestPremapAdder(t *testing.T) {
	src := logic.New("adder")
	a := src.AddPI("a")
	b := src.AddPI("b")
	cin := src.AddPI("cin")
	sum := src.AddLogic("sum", []logic.NodeID{a.ID, b.ID, cin.ID}, logic.XorSOP(3))
	maj := logic.NewSOP(3)
	maj.AddCube(logic.Cube{logic.LitPos, logic.LitPos, logic.LitDC})
	maj.AddCube(logic.Cube{logic.LitPos, logic.LitDC, logic.LitPos})
	maj.AddCube(logic.Cube{logic.LitDC, logic.LitPos, logic.LitPos})
	cout := src.AddLogic("cout", []logic.NodeID{a.ID, b.ID, cin.ID}, maj)
	src.MarkPO(sum.ID, "sum")
	src.MarkPO(cout.ID, "cout")

	res, err := Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSubjectGraph(res.Inchoate); err != nil {
		t.Fatal(err)
	}
	evalBoth(t, src, res.Inchoate, 8, 1)
}

func TestPremapBenchmarksEquivalent(t *testing.T) {
	for _, name := range []string{"misex1", "b9", "C432"} {
		p, _ := bench.ProfileByName(name)
		src := bench.Generate(p)
		res, err := Premap(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := CheckSubjectGraph(res.Inchoate); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		evalBoth(t, src, res.Inchoate, 20, int64(len(name)))
	}
}

func TestPremapExpansionScale(t *testing.T) {
	// The paper's C5315 premaps to roughly 1900 base gates; our generator
	// plus decomposer should land in the same regime (1200-3200).
	p, _ := bench.ProfileByName("C5315")
	src := bench.Generate(p)
	res, err := Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Inchoate.NumLogic()
	if n < 1200 || n > 3200 {
		t.Errorf("C5315 inchoate size = %d, want ~1900", n)
	}
}

func TestPremapConstants(t *testing.T) {
	src := logic.New("consts")
	a := src.AddPI("a")
	one := src.AddLogic("one", nil, logic.ConstSOP(true))
	zero := src.AddLogic("zero", nil, logic.ConstSOP(false))
	inv := src.AddLogic("inv", []logic.NodeID{a.ID}, logic.NotSOP())
	src.MarkPO(one.ID, "one")
	src.MarkPO(zero.ID, "zero")
	src.MarkPO(inv.ID, "inv")
	res, err := Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	evalBoth(t, src, res.Inchoate, 2, 3)
}

func TestPremapStructuralHashing(t *testing.T) {
	// Two nodes computing the same AND over the same fanins must share
	// subject-graph structure.
	src := logic.New("shared")
	a := src.AddPI("a")
	b := src.AddPI("b")
	x := src.AddLogic("x", []logic.NodeID{a.ID, b.ID}, logic.AndSOP(2))
	y := src.AddLogic("y", []logic.NodeID{a.ID, b.ID}, logic.AndSOP(2))
	src.MarkPO(x.ID, "x")
	src.MarkPO(y.ID, "y")
	res, err := Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Root[x.ID] != res.Root[y.ID] {
		t.Error("identical nodes not hashed together")
	}
	// AND2 = NAND2 + INV: exactly two logic nodes.
	if got := res.Inchoate.NumLogic(); got != 2 {
		t.Errorf("subject graph has %d nodes, want 2", got)
	}
}

func TestPremapPlacedEquivalent(t *testing.T) {
	src := bench.Random(11, 12, 6, 60, 4)
	pos := make(map[logic.NodeID]geom.Point)
	rng := rand.New(rand.NewSource(5))
	for _, nd := range src.Nodes {
		if nd != nil {
			pos[nd.ID] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		}
	}
	res, err := PremapPlaced(src, pos)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSubjectGraph(res.Inchoate); err != nil {
		t.Fatal(err)
	}
	evalBoth(t, src, res.Inchoate, 20, 6)
}

func TestPremapPlacedRequiresPositions(t *testing.T) {
	src := bench.Random(1, 4, 2, 10, 3)
	if _, err := PremapPlaced(src, nil); err == nil {
		t.Error("expected error without positions")
	}
}

func TestSpatialOrderClusters(t *testing.T) {
	// Four leaves: two on the far left, two on the far right. After
	// spatial ordering, each pair must be adjacent so the balanced tree
	// keeps clusters together (Fig 1.1b).
	leaves := []leaf{
		{id: 1, pos: geom.Point{X: 0, Y: 0}},
		{id: 2, pos: geom.Point{X: 100, Y: 1}},
		{id: 3, pos: geom.Point{X: 1, Y: 2}},
		{id: 4, pos: geom.Point{X: 101, Y: 3}},
	}
	spatialOrder(leaves, true)
	left := map[logic.NodeID]bool{1: true, 3: true}
	if left[leaves[0].id] != left[leaves[1].id] {
		t.Errorf("left cluster split: %v", leaves)
	}
	if left[leaves[2].id] != left[leaves[3].id] {
		t.Errorf("right cluster split: %v", leaves)
	}
}

func TestInverterCollapses(t *testing.T) {
	b := newBuilder("t")
	x := b.net.AddPI("x")
	i1 := b.Inv(x.ID)
	i2 := b.Inv(i1)
	if i2 != x.ID {
		t.Error("double inversion not collapsed")
	}
	if b.Inv(x.ID) != i1 {
		t.Error("inverter not memoized")
	}
	if b.Nand2(x.ID, x.ID) != i1 {
		t.Error("NAND(x,x) should collapse to the inverter")
	}
}

func TestPremapPreservesPONames(t *testing.T) {
	src := bench.Random(2, 6, 4, 30, 3)
	res, err := Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inchoate.POs) != len(src.POs) {
		t.Fatalf("PO count changed: %d -> %d", len(src.POs), len(res.Inchoate.POs))
	}
	for i := range src.POs {
		if res.Inchoate.PONames[i] != src.PONames[i] {
			t.Errorf("PO name %d changed: %s -> %s", i, src.PONames[i], res.Inchoate.PONames[i])
		}
	}
}

// TestIsNand2IsInvAllocs: the subject-graph predicates, which run on every
// subject node, classify NAND2 and INV nodes correctly and allocate
// nothing.
func TestIsNand2IsInvAllocs(t *testing.T) {
	n := logic.New("t")
	a, b := n.AddPI("a"), n.AddPI("b")
	nand := n.AddLogic("x", []logic.NodeID{a.ID, b.ID}, logic.NandSOP(2)).ID
	inv := n.AddLogic("y", []logic.NodeID{nand}, logic.NotSOP()).ID
	and := n.AddLogic("z", []logic.NodeID{a.ID, b.ID}, logic.AndSOP(2)).ID
	if !IsNand2(n, nand) || IsNand2(n, and) || IsNand2(n, inv) {
		t.Error("IsNand2 misclassifies")
	}
	if !IsInv(n, inv) || IsInv(n, nand) {
		t.Error("IsInv misclassifies")
	}
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	if allocs := testing.AllocsPerRun(100, func() { IsNand2(n, nand) }); allocs != 0 {
		t.Errorf("IsNand2: %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { IsInv(n, inv) }); allocs != 0 {
		t.Errorf("IsInv: %v allocations, want 0", allocs)
	}
}

// TestWiresOnlyAgreesWithPremap: WiresOnly says true exactly when the
// premapped subject graph has no logic node.
func TestWiresOnlyAgreesWithPremap(t *testing.T) {
	type build func(n *logic.Network, a, b logic.NodeID) logic.NodeID
	one := func(n *logic.Network, name string, fanin logic.NodeID, f logic.SOP) logic.NodeID {
		return n.AddLogic(name, []logic.NodeID{fanin}, f).ID
	}
	cases := []struct {
		name string
		out  build
		want bool
	}{
		{"input", func(n *logic.Network, a, b logic.NodeID) logic.NodeID { return a }, true},
		{"buffer", func(n *logic.Network, a, b logic.NodeID) logic.NodeID {
			return one(n, "y", a, logic.BufSOP())
		}, true},
		{"double inversion", func(n *logic.Network, a, b logic.NodeID) logic.NodeID {
			return one(n, "y", one(n, "na", a, logic.NotSOP()), logic.NotSOP())
		}, true},
		{"or of two buffers of one input", func(n *logic.Network, a, b logic.NodeID) logic.NodeID {
			w1, w2 := one(n, "w1", a, logic.BufSOP()), one(n, "w2", a, logic.BufSOP())
			return n.AddLogic("y", []logic.NodeID{w1, w2}, logic.OrSOP(2)).ID
		}, true},
		{"inverter", func(n *logic.Network, a, b logic.NodeID) logic.NodeID {
			return one(n, "y", a, logic.NotSOP())
		}, false},
		{"input and its complement", func(n *logic.Network, a, b logic.NodeID) logic.NodeID {
			na := one(n, "na", a, logic.NotSOP())
			return n.AddLogic("y", []logic.NodeID{a, na}, logic.AndSOP(2)).ID
		}, false},
		{"input or constant 1", func(n *logic.Network, a, b logic.NodeID) logic.NodeID {
			f := logic.NewSOP(1)
			f.AddCube(logic.Cube{logic.LitPos})
			f.AddCube(logic.Cube{logic.LitDC})
			return one(n, "y", a, f)
		}, false},
		{"constant", func(n *logic.Network, a, b logic.NodeID) logic.NodeID {
			return n.AddLogic("y", nil, logic.ConstSOP(false)).ID
		}, false},
		{"and", func(n *logic.Network, a, b logic.NodeID) logic.NodeID {
			return n.AddLogic("y", []logic.NodeID{a, b}, logic.AndSOP(2)).ID
		}, false},
	}
	check := func(name string, src *logic.Network) bool {
		t.Helper()
		res, err := Premap(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := res.Inchoate.NumLogic() == 0
		if got := WiresOnly(src); got != want {
			t.Errorf("%s: WiresOnly = %v, subject graph has %d logic nodes", name, got, res.Inchoate.NumLogic())
		}
		return want
	}
	for _, c := range cases {
		src := logic.New("t")
		a, b := src.AddPI("a").ID, src.AddPI("b").ID
		src.MarkPO(c.out(src, a, b), "y")
		if got := check(c.name, src); got != c.want {
			t.Errorf("%s: subject graph logic-free = %v, want %v", c.name, got, c.want)
		}
		// A second output wired to b leaves the verdict to the first.
		src.MarkPO(b, "z")
		check(c.name+" with a wire output", src)
	}
	// Random single-input networks are chains of buffers and inverters,
	// some of which fold away entirely.
	var wires int
	for seed := int64(1); seed <= 200; seed++ {
		src := bench.Random(seed, 1+int(seed%3), 1+int(seed%2), 1+int(seed%5), 1)
		if check(src.Name, src) {
			wires++
		}
	}
	if wires == 0 || wires == 200 {
		t.Errorf("%d of 200 random networks premap to wires only; the draw tests one side", wires)
	}
}

package opt

import (
	"math/rand"
	"testing"

	"lily/internal/bench"
	"lily/internal/logic"
)

// checkSame verifies functional equivalence of a network before and after
// a transformation using captured input/output behaviour.
func snapshot(t *testing.T, net *logic.Network, trials int, seed int64) []map[string]bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var outs []map[string]bool
	for k := 0; k < trials; k++ {
		in := make(map[string]bool)
		for _, pi := range net.PIs {
			in[net.Nodes[pi].Name] = rng.Intn(2) == 1
		}
		o, err := net.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		o["__trial"] = k%2 == 0 // keep map non-empty even for no-PO nets
		outs = append(outs, o)
	}
	return outs
}

func compare(t *testing.T, net *logic.Network, want []map[string]bool, trials int, seed int64) {
	t.Helper()
	got := snapshot(t, net, trials, seed)
	for k := range want {
		for name := range want[k] {
			if want[k][name] != got[k][name] {
				t.Fatalf("trial %d output %s changed", k, name)
			}
		}
	}
}

func TestOptimizePreservesFunction(t *testing.T) {
	for _, name := range []string{"misex1", "b9", "C432", "duke2"} {
		p, _ := bench.ProfileByName(name)
		net := bench.Generate(p)
		want := snapshot(t, net, 24, 5)
		st, err := Optimize(net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compare(t, net, want, 24, 5)
		if st.LiteralsAfter > st.LiteralsBefore {
			t.Errorf("%s: literals grew %d -> %d", name, st.LiteralsBefore, st.LiteralsAfter)
		}
	}
}

func TestOptimizeReducesLiterals(t *testing.T) {
	// A redundant network: shared cube ab in three nodes, contained
	// cubes, and a mergeable pair.
	net := logic.New("red")
	a := net.AddPI("a")
	b := net.AddPI("b")
	c := net.AddPI("c")
	d := net.AddPI("d")
	mk := func(name string, cubes ...logic.Cube) *logic.Node {
		s := logic.NewSOP(4)
		for _, cu := range cubes {
			s.AddCube(cu)
		}
		return net.AddLogic(name, []logic.NodeID{a.ID, b.ID, c.ID, d.ID}, s)
	}
	// x = ab c + ab d
	x := mk("x",
		logic.Cube{logic.LitPos, logic.LitPos, logic.LitPos, logic.LitDC},
		logic.Cube{logic.LitPos, logic.LitPos, logic.LitDC, logic.LitPos})
	// y = ab !c + ab c  (mergeable to ab)
	y := mk("y",
		logic.Cube{logic.LitPos, logic.LitPos, logic.LitNeg, logic.LitDC},
		logic.Cube{logic.LitPos, logic.LitPos, logic.LitPos, logic.LitDC})
	// z = abc + abcd (second cube contained)
	z := mk("z",
		logic.Cube{logic.LitPos, logic.LitPos, logic.LitPos, logic.LitDC},
		logic.Cube{logic.LitPos, logic.LitPos, logic.LitPos, logic.LitPos})
	net.MarkPO(x.ID, "x")
	net.MarkPO(y.ID, "y")
	net.MarkPO(z.ID, "z")

	want := snapshot(t, net, 16, 9)
	st, err := Optimize(net)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, net, want, 16, 9)
	if st.LiteralsAfter >= st.LiteralsBefore {
		t.Errorf("no reduction: %v", st)
	}
	if st.CubesDropped == 0 {
		t.Error("contained cube not dropped")
	}
	if st.CubesMerged == 0 {
		t.Error("distance-1 cubes not merged")
	}
}

func TestExtractSharedCube(t *testing.T) {
	// Three nodes each containing cube a·b: extraction should introduce
	// one shared AND node.
	net := logic.New("ext")
	a := net.AddPI("a")
	b := net.AddPI("b")
	c := net.AddPI("c")
	for i, other := range []logic.NodeID{c.ID, c.ID, c.ID} {
		s := logic.NewSOP(3)
		s.AddCube(logic.Cube{logic.LitPos, logic.LitPos, logic.LitDC})
		s.AddCube(logic.Cube{logic.LitDC, logic.LitDC, logic.LitPos})
		nd := net.AddLogic(string(rune('x'+i)), []logic.NodeID{a.ID, b.ID, other}, s)
		net.MarkPO(nd.ID, string(rune('x'+i)))
	}
	want := snapshot(t, net, 8, 3)
	var st Stats
	n := extractCommonCubes(net, 0, &st)
	if n == 0 || st.CubesExtracted == 0 {
		t.Fatal("nothing extracted")
	}
	if err := net.Check(); err != nil {
		t.Fatal(err)
	}
	compare(t, net, want, 8, 3)
	// The new shared node exists and feeds all three.
	found := false
	for _, nd := range net.Nodes {
		if nd != nil && nd.Kind == logic.KindLogic && len(net.Fanouts(nd.ID)) >= 3 {
			found = true
		}
	}
	if !found {
		t.Error("no shared extracted node with 3 fanouts")
	}
}

func TestConstantPropagation(t *testing.T) {
	net := logic.New("consts")
	a := net.AddPI("a")
	zero := net.AddLogic("zero", nil, logic.ConstSOP(false))
	// x = a AND zero = 0; y = a OR zero = a
	x := net.AddLogic("x", []logic.NodeID{a.ID, zero.ID}, logic.AndSOP(2))
	y := net.AddLogic("y", []logic.NodeID{a.ID, zero.ID}, logic.OrSOP(2))
	net.MarkPO(x.ID, "x")
	net.MarkPO(y.ID, "y")
	want := snapshot(t, net, 4, 7)
	st, err := Optimize(net)
	if err != nil {
		t.Fatal(err)
	}
	compare(t, net, want, 4, 7)
	if st.ConstantsFound == 0 {
		t.Error("constants not found")
	}
	// x must now be a constant-0 node with no fanins.
	xn := net.NodeByName("x")
	if len(xn.Fanins) != 0 || !xn.Cover.IsConst0() {
		t.Errorf("x not reduced to constant: %v fanins, cover %v", len(xn.Fanins), xn.Cover)
	}
}

func TestEliminateSingleCubeNode(t *testing.T) {
	// m = a AND b feeding two nodes, one positively, one negatively; both
	// should absorb it when the threshold allows.
	net := logic.New("elim")
	a := net.AddPI("a")
	b := net.AddPI("b")
	c := net.AddPI("c")
	m := net.AddLogic("m", []logic.NodeID{a.ID, b.ID}, logic.AndSOP(2))
	pos := net.AddLogic("pos", []logic.NodeID{m.ID, c.ID}, logic.AndSOP(2))
	s := logic.NewSOP(2)
	s.AddCube(logic.Cube{logic.LitNeg, logic.LitPos}) // !m AND c
	neg := net.AddLogic("neg", []logic.NodeID{m.ID, c.ID}, s)
	net.MarkPO(pos.ID, "pos")
	net.MarkPO(neg.ID, "neg")

	want := snapshot(t, net, 8, 11)
	var st Stats
	n := eliminate(net, 5, &st)
	if n == 0 {
		t.Fatal("nothing eliminated")
	}
	net.Sweep()
	if err := net.Check(); err != nil {
		t.Fatal(err)
	}
	compare(t, net, want, 8, 11)
	if net.NodeByName("m") != nil {
		t.Error("m survived elimination")
	}
}

func TestEliminateRespectsThreshold(t *testing.T) {
	// A wide AND with many fanouts: collapsing would duplicate literals
	// beyond the threshold, so it must stay.
	net := logic.New("keep")
	var pis []logic.NodeID
	for i := 0; i < 4; i++ {
		pis = append(pis, net.AddPI(string(rune('a'+i))).ID)
	}
	m := net.AddLogic("m", pis, logic.AndSOP(4))
	for i := 0; i < 5; i++ {
		nd := net.AddLogic("o"+string(rune('0'+i)), []logic.NodeID{m.ID, pis[0]}, logic.AndSOP(2))
		net.MarkPO(nd.ID, "o"+string(rune('0'+i)))
	}
	var st Stats
	if n := eliminate(net, 0, &st); n != 0 {
		t.Errorf("high-cost node eliminated (%d)", n)
	}
	if net.NodeByName("m") == nil {
		t.Error("m removed despite threshold")
	}
}

func TestOptimizeBeforePremapHelps(t *testing.T) {
	// On the generated circuits (which carry redundancy by construction),
	// optimization should shrink literals without changing function.
	p, _ := bench.ProfileByName("misex3")
	net := bench.Generate(p)
	before := 0
	for _, nd := range net.Nodes {
		if nd != nil && nd.Kind == logic.KindLogic {
			before += nd.Cover.LiteralCount()
		}
	}
	st, err := Optimize(net)
	if err != nil {
		t.Fatal(err)
	}
	if st.LiteralsAfter >= before {
		t.Logf("no literal reduction on misex3 (%d -> %d); acceptable but unusual",
			before, st.LiteralsAfter)
	}
}

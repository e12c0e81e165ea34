package equiv

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lily/internal/bdd"
	"lily/internal/bench"
	"lily/internal/core"
	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/mis"
	"lily/internal/netlist"
)

// randomCover draws a cover over n inputs: up to 10 cubes whose
// literals are don't-care with probability 3/5, occasionally an all-
// don't-care cube, occasionally no cube at all.
func randomCover(rng *rand.Rand, n int) logic.SOP {
	s := logic.NewSOP(n)
	cubes := rng.Intn(11)
	for c := 0; c < cubes; c++ {
		cube := make(logic.Cube, n)
		if rng.Intn(20) != 0 {
			for i := range cube {
				if r := rng.Intn(5); r == 0 {
					cube[i] = logic.LitPos
				} else if r == 1 {
					cube[i] = logic.LitNeg
				}
			}
		}
		s.AddCube(cube)
	}
	return s
}

// randomFanin draws a fanin BDD over m's first v variables: a constant,
// a literal, or the AND, OR or XOR of two literals.
func randomFanin(t *testing.T, rng *rand.Rand, m *bdd.Manager, v int) bdd.Ref {
	t.Helper()
	lit := func() bdd.Ref {
		r, err := m.Var(rng.Intn(v))
		if err == nil && rng.Intn(2) == 0 {
			r, err = m.Not(r)
		}
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	var r bdd.Ref
	var err error
	switch rng.Intn(6) {
	case 0:
		return bdd.Ref(rng.Intn(2)) // False or True
	case 1, 2:
		return lit()
	case 3:
		r, err = m.And(lit(), lit())
	case 4:
		r, err = m.Or(lit(), lit())
	default:
		r, err = m.Xor(lit(), lit())
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkComposed requires the composed BDD r of cover over the fanin BDDs
// ins to agree with SOP.Eval of the fanins' values under each variable
// assignment in assigns.
func checkComposed(t *testing.T, m *bdd.Manager, cover logic.SOP, ins []bdd.Ref, r bdd.Ref, assigns [][]bool) {
	t.Helper()
	vals := make([]bool, len(ins))
	for _, a := range assigns {
		for i, in := range ins {
			vals[i] = m.Eval(in, a)
		}
		if got, want := m.Eval(r, a), cover.Eval(vals); got != want {
			t.Fatalf("cover %s over fanin values %v: BDD gives %v, SOP.Eval %v", cover, vals, got, want)
		}
	}
}

// allAssignments enumerates the 2^v assignments of v variables.
func allAssignments(v int) [][]bool {
	out := make([][]bool, 1<<v)
	for r := range out {
		out[r] = make([]bool, v)
		for i := range out[r] {
			out[r][i] = r>>i&1 != 0
		}
	}
	return out
}

// randomAssignments draws k assignments of v variables.
func randomAssignments(rng *rand.Rand, v, k int) [][]bool {
	out := make([][]bool, k)
	for j := range out {
		out[j] = make([]bool, v)
		for i := range out[j] {
			out[j][i] = rng.Intn(2) == 1
		}
	}
	return out
}

// The composed BDD of a cover of any width, on either side of the six-
// input truth-word handover, must compute the cover of its fanins. Two
// kinds of fanins: distinct variables in shuffled order, checked on
// every input assignment up to 12 inputs and on 2,000 random ones above;
// and random functions of six variables (constants, shared and
// complemented literals, two-literal gates), checked on all 64
// assignments.
func TestComposeMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 20; n++ {
		for trial := 0; trial < 12; trial++ {
			cover := randomCover(rng, n)

			m := bdd.New(n, 0)
			c := &composer{m: m, budget: 1 << 20}
			ins := make([]bdd.Ref, n)
			for i, v := range rng.Perm(n) {
				r, err := m.Var(v)
				if err != nil {
					t.Fatal(err)
				}
				ins[i] = r
			}
			r, err := c.cover(cover, ins)
			if err != nil {
				t.Fatal(err)
			}
			assigns := allAssignments(min(n, 12))
			if n > 12 {
				assigns = randomAssignments(rng, n, 2000)
			}
			checkComposed(t, m, cover, ins, r, assigns)

			m = bdd.New(6, 0)
			c = &composer{m: m, budget: 1 << 20}
			for i := range ins {
				ins[i] = randomFanin(t, rng, m, 6)
			}
			if r, err = c.cover(cover, ins); err != nil {
				t.Fatal(err)
			}
			checkComposed(t, m, cover, ins, r, allAssignments(6))
		}
	}
}

// x0·x1 + x2·x3 + ... + x38·x39 leaves the same cubes after many
// different assignments to its upper inputs. The memo composes each
// distinct cofactor once, a number linear in the width here, where a
// plain expansion would visit 2^20 of them.
func TestComposeWideCoverMemo(t *testing.T) {
	const n = 40
	cover := logic.NewSOP(n)
	for i := 0; i < n; i += 2 {
		cube := make(logic.Cube, n)
		cube[i], cube[i+1] = logic.LitPos, logic.LitPos
		cover.AddCube(cube)
	}
	m := bdd.New(n, 0)
	c := &composer{m: m, budget: 1 << 20}
	ins := make([]bdd.Ref, n)
	for i := range ins {
		r, err := m.Var(i)
		if err != nil {
			t.Fatal(err)
		}
		ins[i] = r
	}
	r, err := c.cover(cover, ins)
	if err != nil {
		t.Fatal(err)
	}
	checkComposed(t, m, cover, ins, r, randomAssignments(rand.New(rand.NewSource(1)), n, 2000))
	if c.steps > 2*n {
		t.Errorf("%d expansion steps above six inputs, want at most %d", c.steps, 2*n)
	}
}

// Expansion steps above six inputs count against the node budget, so a
// hostile wide cover fails like any other budget overrun instead of
// expanding without bound.
func TestComposeStepBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 24
	cover := logic.NewSOP(n)
	for k := 0; k < 30; k++ {
		cube := make(logic.Cube, n)
		for i := range cube {
			cube[i] = logic.Lit(rng.Intn(3))
		}
		cover.AddCube(cube)
	}
	m := bdd.New(n, 0)
	ins := make([]bdd.Ref, n)
	for i := range ins {
		r, err := m.Var(i)
		if err != nil {
			t.Fatal(err)
		}
		ins[i] = r
	}
	c := &composer{m: m, budget: 3}
	if _, err := c.cover(cover, ins); !errors.Is(err, bdd.ErrNodeLimit) {
		t.Errorf("composition past a 3-step budget returned %v, want bdd.ErrNodeLimit", err)
	}
}

// A BLIF on-set node may be wider than logic.MaxEvalInputs. The checker
// must prove its mapping formally, not sample it.
func TestWideOnSetNodeProved(t *testing.T) {
	const n = 20
	var b strings.Builder
	b.WriteString(".model wide\n.inputs")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " x%d", i)
	}
	b.WriteString("\n.outputs f\n.names")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " x%d", i)
	}
	b.WriteString(" f\n")
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 12; k++ {
		for i := 0; i < n; i++ {
			b.WriteByte("-----10"[rng.Intn(7)])
		}
		b.WriteString(" 1\n")
	}
	b.WriteString(strings.Repeat("1", n) + " 1\n.end\n")
	src, err := logic.ParseBLIF(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if w := src.NodeByName("f").Cover.NumInputs; w != n {
		t.Fatalf("parsed node f has %d inputs, want %d", w, n)
	}
	pre, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := mis.Map(pre.Inchoate, library.Big(), mis.DefaultOptions(mis.ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(src, nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent || res.Method != MethodBDD {
		t.Errorf("20-input node: equivalent=%v method=%v, want a proof", res.Equivalent, res.Method)
	}
}

// Variables are numbered by first visit in a depth-first walk from the
// outputs in source order, over fanins in pin order; inputs the walk
// never reaches follow in name order.
func TestVariableOrderDFS(t *testing.T) {
	net := logic.New("order")
	pi := map[string]logic.NodeID{}
	for _, name := range []string{"a", "b", "c", "d", "e", "zz", "f"} {
		pi[name] = net.AddPI(name).ID
	}
	n1 := net.AddLogic("n1", []logic.NodeID{pi["c"], pi["a"]}, logic.AndSOP(2)).ID
	n2 := net.AddLogic("n2", []logic.NodeID{n1, pi["d"], pi["c"]}, logic.OrSOP(3)).ID
	n3 := net.AddLogic("n3", []logic.NodeID{pi["b"], n1, pi["a"]}, logic.XorSOP(3)).ID
	net.MarkPO(n2, "o1")
	net.MarkPO(pi["e"], "o2")
	net.MarkPO(n3, "o3")
	want := []string{"c", "a", "d", "e", "b", "f", "zz"}
	if got := variableOrder(net); !reflect.DeepEqual(got, want) {
		t.Errorf("variable order %v, want %v", got, want)
	}
}

// x01·y01 + x02·y02 + ... + x16·y16 has a BDD of about 2^17 nodes when
// every x precedes every y, as in sorted-name order, and of 2·16 nodes
// when each y follows its x, as the depth-first walk from the output
// through the OR chain places them. So the check is proved far inside
// a 100k-node budget only if it uses the depth-first order.
func TestDFSOrderProvesInterleavedProducts(t *testing.T) {
	const n = 16
	src := logic.New("products")
	var terms []logic.NodeID
	for i := 1; i <= n; i++ {
		x := src.AddPI(fmt.Sprintf("x%02d", i)).ID
		y := src.AddPI(fmt.Sprintf("y%02d", i)).ID
		terms = append(terms, src.AddLogic(fmt.Sprintf("p%02d", i), []logic.NodeID{x, y}, logic.AndSOP(2)).ID)
	}
	acc := terms[n-1]
	for i := n - 2; i >= 0; i-- {
		acc = src.AddLogic(fmt.Sprintf("s%02d", i+1), []logic.NodeID{terms[i], acc}, logic.OrSOP(2)).ID
	}
	src.MarkPO(acc, "f")
	pre, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := mis.Map(pre.Inchoate, library.Big(), mis.DefaultOptions(mis.ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.MaxBDDNodes = 100_000
	res, err := Check(src, nl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent || res.Method != MethodBDD || res.BDDNodes > 1000 {
		t.Errorf("equivalent=%v method=%v nodes=%d, want a proof in at most 1000 nodes",
			res.Equivalent, res.Method, res.BDDNodes)
	}
}

// lutNetlist maps a circuit onto 6-input LUTs with Lily.
func lutNetlist(t *testing.T, name string) (*logic.Network, *netlist.Netlist) {
	t.Helper()
	p, ok := bench.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	src := bench.Generate(p)
	pre, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(core.ModeArea)
	opt.Target = core.TargetLUT6
	res, err := core.Map(pre.Inchoate, library.Big(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return src, res.Netlist
}

// flipLUTBit returns a copy of the LUT gate g with truth-table row r
// inverted, as a minterm cover.
func flipLUTBit(g *library.Gate, r int) *library.Gate {
	k := g.Cover.NumInputs
	tt := g.Cover.TruthWord() ^ 1<<r
	cover := logic.NewSOP(k)
	for row := 0; row < 1<<k; row++ {
		if tt>>row&1 == 0 {
			continue
		}
		cube := make(logic.Cube, k)
		for i := range cube {
			cube[i] = logic.LitNeg
			if row>>i&1 != 0 {
				cube[i] = logic.LitPos
			}
		}
		cover.AddCube(cube)
	}
	return library.NewLUT(g.Name+"_flipped", cover, 6)
}

// symmetricPins reports whether swapping inputs i and j leaves the
// cover's function unchanged, so a swap of those pins plants nothing.
func symmetricPins(cover logic.SOP, i, j int) bool {
	swapped := cover.Clone()
	for _, cube := range swapped.Cubes {
		cube[i], cube[j] = cube[j], cube[i]
	}
	return logic.EqualFunc(cover, swapped)
}

// requireFormalCounterexample checks a planted defect's verdict: not
// equivalent, decided by BDD, and the counterexample makes the named
// output differ between the source and the netlist.
func requireFormalCounterexample(t *testing.T, what string, src *logic.Network, nl *netlist.Netlist, res *Result) {
	t.Helper()
	if res.Equivalent || res.Method != MethodBDD {
		t.Fatalf("%s: equivalent=%v method=%v, want a formal counterexample", what, res.Equivalent, res.Method)
	}
	want, err := src.Eval(res.Counterexample)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nl.Eval(res.Counterexample)
	if err != nil {
		t.Fatal(err)
	}
	if want[res.FailingOutput] == got[res.FailingOutput] {
		t.Errorf("%s: counterexample does not make output %s differ", what, res.FailingOutput)
	}
}

// C1908 needed more than the node budget under name-ordered, cube-by-cube
// composition and fell back to simulation; it is now proved, so planted
// defects come back as formal counterexamples. Each plant is the first
// candidate (in cell order, then row or asymmetric pin pair order) that
// changes some output; the counterexample check confirms the change
// independently of the BDDs.
func TestMutationsCaughtByBDD(t *testing.T) {
	src, nl := lutNetlist(t, "C1908")
	if res, err := Check(src, nl, DefaultOptions()); err != nil || !res.Equivalent || res.Method != MethodBDD {
		t.Fatalf("clean C1908/lut6: %+v, %v; want a proof", res, err)
	}
	t.Run("lut6-flipped-bit", func(t *testing.T) {
		for _, cell := range nl.Cells {
			orig := cell.Gate
			for r := 0; r < 1<<orig.NumInputs; r++ {
				cell.Gate = flipLUTBit(orig, r)
				res, err := Check(src, nl, DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Equivalent {
					requireFormalCounterexample(t, fmt.Sprintf("%s row %d", cell.Name, r), src, nl, res)
					return
				}
			}
			cell.Gate = orig
		}
		t.Fatal("no single truth-table bit flip changed an output")
	})

	src, nl = mapped(t, "C1908")
	if res, err := Check(src, nl, DefaultOptions()); err != nil || !res.Equivalent || res.Method != MethodBDD {
		t.Fatalf("clean C1908/asic: %+v, %v; want a proof", res, err)
	}
	t.Run("asic-swapped-pins", func(t *testing.T) {
		for _, cell := range nl.Cells {
			in := cell.Inputs
			for i := 0; i < len(in); i++ {
				for j := i + 1; j < len(in); j++ {
					if in[i] == in[j] || symmetricPins(cell.Gate.Cover, i, j) {
						continue
					}
					in[i], in[j] = in[j], in[i]
					res, err := Check(src, nl, DefaultOptions())
					if err != nil {
						t.Fatal(err)
					}
					if !res.Equivalent {
						requireFormalCounterexample(t, fmt.Sprintf("%s pins %d,%d", cell.Name, i, j), src, nl, res)
						return
					}
					in[i], in[j] = in[j], in[i]
				}
			}
		}
		t.Fatal("no pin swap changed an output")
	})
}

package match

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
)

// buildSubject premaps a tiny source network and returns the subject graph.
func buildSubject(t *testing.T, build func(n *logic.Network)) *logic.Network {
	t.Helper()
	src := logic.New("t")
	build(src)
	res, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	return res.Inchoate
}

func TestClassify(t *testing.T) {
	sub := buildSubject(t, func(n *logic.Network) {
		a := n.AddPI("a")
		b := n.AddPI("b")
		x := n.AddLogic("x", []logic.NodeID{a.ID, b.ID}, logic.AndSOP(2))
		n.MarkPO(x.ID, "x")
	})
	c := Classify(sub)
	nands, invs, pis := 0, 0, 0
	for _, nd := range sub.Nodes {
		if nd == nil {
			continue
		}
		switch c.Type(nd.ID) {
		case TypeNand2:
			nands++
		case TypeInv:
			invs++
		case TypePI:
			pis++
		default:
			t.Errorf("node %s unclassified", nd.Name)
		}
	}
	if pis != 2 || nands != 1 || invs != 1 {
		t.Errorf("classification: pi=%d nand=%d inv=%d", pis, nands, invs)
	}
}

func TestMatchAnd2(t *testing.T) {
	// AND(a,b) premaps to INV(NAND(a,b)); at the INV root the and2 gate
	// must match with inputs {a,b}, and the inv gate must match with the
	// NAND node as input.
	sub := buildSubject(t, func(n *logic.Network) {
		a := n.AddPI("a")
		b := n.AddPI("b")
		x := n.AddLogic("x", []logic.NodeID{a.ID, b.ID}, logic.AndSOP(2))
		n.MarkPO(x.ID, "x")
	})
	lib := library.Big()
	mt := NewMatcher(sub, lib)
	root := sub.POs[0]
	matches := mt.AtNode(root)
	var haveAnd2, haveInv bool
	for _, m := range matches {
		if err := Verify(sub, &m); err != nil {
			t.Errorf("verify: %v", err)
		}
		switch m.Gate.Name {
		case "and2":
			haveAnd2 = true
			if len(m.Merged()) != 2 {
				t.Errorf("and2 merged = %v", m.Merged())
			}
		case "inv":
			haveInv = true
		}
	}
	if !haveAnd2 || !haveInv {
		t.Errorf("missing matches at AND root: and2=%v inv=%v (%d matches)",
			haveAnd2, haveInv, len(matches))
	}
}

func TestMatchWideNand(t *testing.T) {
	// NAND4 over 4 PIs: subject is a tree of NAND2/INV; at the root the
	// nand4 gate must match (via one of its shape variants) with the four
	// PIs as inputs.
	sub := buildSubject(t, func(n *logic.Network) {
		var ids []logic.NodeID
		for _, name := range []string{"a", "b", "c", "d"} {
			ids = append(ids, n.AddPI(name).ID)
		}
		x := n.AddLogic("x", ids, logic.NandSOP(4))
		n.MarkPO(x.ID, "x")
	})
	lib := library.Big()
	mt := NewMatcher(sub, lib)
	matches := mt.AtNode(sub.POs[0])
	found := false
	for _, m := range matches {
		if m.Gate.Name == "nand4" {
			found = true
			if len(m.Inputs()) != 4 {
				t.Errorf("nand4 inputs = %v", m.Inputs())
			}
			pis := map[logic.NodeID]bool{}
			for _, in := range m.Inputs() {
				pis[in] = true
			}
			if len(pis) != 4 {
				t.Errorf("nand4 inputs not distinct PIs: %v", m.Inputs())
			}
			if err := Verify(sub, &m); err != nil {
				t.Error(err)
			}
		}
	}
	if !found {
		t.Error("nand4 did not match a premapped 4-input NAND")
	}
}

func TestMatchCommutative(t *testing.T) {
	// OAI21 = NAND(OR(a,b), c) premapped: nand(nand(!a,!b), c)'s root is a
	// NAND whose children differ in type; the matcher must find oai21
	// regardless of fanin order.
	sub := buildSubject(t, func(n *logic.Network) {
		a := n.AddPI("a")
		b := n.AddPI("b")
		c := n.AddPI("c")
		o := n.AddLogic("o", []logic.NodeID{a.ID, b.ID}, logic.OrSOP(2))
		x := n.AddLogic("x", []logic.NodeID{o.ID, c.ID}, logic.NandSOP(2))
		n.MarkPO(x.ID, "x")
	})
	lib := library.Big()
	mt := NewMatcher(sub, lib)
	matches := mt.AtNode(sub.POs[0])
	found := false
	for _, m := range matches {
		if m.Gate.Name == "oai21" {
			found = true
			if err := Verify(sub, &m); err != nil {
				t.Error(err)
			}
		}
	}
	if !found {
		names := map[string]bool{}
		for _, m := range matches {
			names[m.Gate.Name] = true
		}
		t.Errorf("oai21 not matched; got %v", names)
	}
}

func TestMatchesDeduplicated(t *testing.T) {
	sub := buildSubject(t, func(n *logic.Network) {
		a := n.AddPI("a")
		b := n.AddPI("b")
		x := n.AddLogic("x", []logic.NodeID{a.ID, b.ID}, logic.NandSOP(2))
		n.MarkPO(x.ID, "x")
	})
	lib := library.Big()
	mt := NewMatcher(sub, lib)
	matches := mt.AtNode(sub.POs[0])
	seen := map[string]bool{}
	for _, m := range matches {
		k := fmt.Sprintf("%s:%v", m.Gate.Name, m.Inputs())
		if seen[k] {
			t.Errorf("duplicate match %s", k)
		}
		seen[k] = true
	}
}

// TestAtNodeMemoized asserts that repeated AtNode calls return the memoized
// result (same backing slice) — the contract the cover DP relies on to make
// matching a once-per-node cost.
func TestAtNodeMemoized(t *testing.T) {
	sub := buildSubject(t, func(n *logic.Network) {
		a := n.AddPI("a")
		b := n.AddPI("b")
		x := n.AddLogic("x", []logic.NodeID{a.ID, b.ID}, logic.NandSOP(2))
		n.MarkPO(x.ID, "x")
	})
	mt := NewMatcher(sub, library.Big())
	first := mt.AtNode(sub.POs[0])
	second := mt.AtNode(sub.POs[0])
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("memoized call differs: %d vs %d matches", len(first), len(second))
	}
	for i := range first {
		if &first[i] != &second[i] {
			t.Fatalf("match %d not memoized: %p vs %p", i, &first[i], &second[i])
		}
	}
}

// stringOrder is the reference order compareBindings must reproduce: the
// sign of the lexicographic comparison of the bindings' %v renderings.
func stringOrder(a, b []logic.NodeID) int {
	return strings.Compare(fmt.Sprintf("%v", a), fmt.Sprintf("%v", b))
}

// checkBindingOrder fails t unless compareBindings orders a and b, both
// ways round, exactly as their %v renderings compare.
func checkBindingOrder(t *testing.T, a, b []logic.NodeID) {
	t.Helper()
	if got, want := compareBindings(a, b), stringOrder(a, b); got != want {
		t.Errorf("compareBindings(%v, %v) = %d, want %d", a, b, got, want)
	}
	if got, want := compareBindings(b, a), stringOrder(b, a); got != want {
		t.Errorf("compareBindings(%v, %v) = %d, want %d", b, a, got, want)
	}
}

// TestDecimalLessMatchesStringOrder pins the sort order of AtNode against
// the historical fmt-rendered key ("gate:[12 34]"): compareBindings must
// order input bindings exactly as lexicographic comparison of their %v
// rendering would, because the DP breaks cost ties by match-list position.
func TestDecimalLessMatchesStringOrder(t *testing.T) {
	cases := [][2][]logic.NodeID{
		{{9}, {10}},          // "9]" > "10]" in string order
		{{1, 9}, {1, 10}},    // last-element prefix: ']' vs digit
		{{9, 1}, {10, 1}},    // mid-element prefix: ' ' vs digit
		{{2}, {10}},          // "1" < "2" stringwise even though 10 > 2
		{{12, 34}, {12, 34}}, // equal
		{{3, 4}, {3, 5}},
		{{-1, 4}, {0, 4}}, // unbound sentinel renders as "-1"
		{{-1}, {-10}},     // two negatives: magnitudes compare as strings
		{{math.MinInt32, 0}, {math.MaxInt32, 0}},
		{{99999, 3}, {100000, 3}},
	}
	for _, c := range cases {
		checkBindingOrder(t, c[0], c[1])
	}
}

// checkDecimalOrder fails t unless compareDecimal orders x and y, both
// ways round and with either separator, exactly as their decimal
// renderings followed by that separator compare.
func checkDecimalOrder(t *testing.T, x, y int64) {
	t.Helper()
	for _, last := range []bool{false, true} {
		sep := " "
		if last {
			sep = "]"
		}
		for _, p := range [][2]int64{{x, y}, {y, x}} {
			want := strings.Compare(strconv.FormatInt(p[0], 10)+sep, strconv.FormatInt(p[1], 10)+sep)
			if got := compareDecimal(p[0], p[1], last); got != want {
				t.Errorf("compareDecimal(%d, %d, %v) = %d, want %d", p[0], p[1], last, got, want)
			}
		}
	}
}

// TestCompareDecimalInt64Extremes checks compareDecimal across the whole
// int64 range it takes, past the NodeID range: the extremes, whose
// magnitudes need the two's-complement negation and the 19th power of
// ten, against neighbours and decimal prefixes.
func TestCompareDecimalInt64Extremes(t *testing.T) {
	cases := [][2]int64{
		{math.MinInt64, 0},
		{math.MinInt64, math.MaxInt64},
		{math.MinInt64, -1},
		{math.MinInt64, -922337203685477580}, // a proper decimal prefix
		{math.MinInt64 + 1, math.MinInt64},
		{math.MaxInt64, 922337203685477580},
		{math.MaxInt64, 9},
		{math.MaxInt64, math.MaxInt64 - 1},
		{math.MaxInt64, math.MaxInt32},
		{1e18, 1e17},
		{-1e18, 1},
	}
	for _, c := range cases {
		checkDecimalOrder(t, c[0], c[1])
	}
}

// randomID draws a node ID whose decimal length varies from 1 to 10
// digits, with small values (and shared prefixes) over-represented, plus
// the unbound sentinel -1.
func randomID(rng *rand.Rand) logic.NodeID {
	switch rng.Intn(8) {
	case 0:
		return logic.InvalidNode
	case 1:
		return logic.NodeID(rng.Int31())
	default:
		return logic.NodeID(rng.Int63n(int64(pow10[rng.Intn(7)+1])))
	}
}

// TestCompareBindingsRandom checks compareBindings against the %v string
// order on seeded random bindings of one to six inputs. Half the pairs
// share a prefix of the binding, and half of the differing elements are
// a decimal prefix of each other, so every branch of the comparison runs.
func TestCompareBindingsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 20000; iter++ {
		n := 1 + rng.Intn(6)
		a := make([]logic.NodeID, n)
		b := make([]logic.NodeID, n)
		for i := range a {
			a[i] = randomID(rng)
			b[i] = randomID(rng)
		}
		if rng.Intn(2) == 0 {
			copy(b, a[:rng.Intn(n)])
		}
		if i := rng.Intn(n); rng.Intn(2) == 0 && a[i] >= 0 {
			// Make b[i] extend a[i]'s decimal string by a few digits.
			x := a[i]
			for d := rng.Intn(3) + 1; d > 0 && x < math.MaxInt32/10; d-- {
				x = x*10 + logic.NodeID(rng.Intn(10))
			}
			b[i] = x
		}
		checkBindingOrder(t, a, b)
	}
}

// FuzzMatchOrder checks compareDecimal against the decimal string order
// on arbitrary int64 pairs, and compareBindings against the %v string
// order on the two-input bindings they form whenever every value is a
// NodeID; values past the NodeID range are never narrowed into one (the
// seeds replay in plain go test).
func FuzzMatchOrder(f *testing.F) {
	f.Add(int64(9), int64(1), int64(10), int64(1))
	f.Add(int64(1), int64(9), int64(1), int64(10))
	f.Add(int64(-1), int64(4), int64(0), int64(4))
	f.Add(int64(12), int64(34), int64(12), int64(34))
	f.Add(int64(math.MinInt32), int64(7), int64(-7), int64(math.MaxInt32))
	f.Add(int64(math.MinInt64), int64(7), int64(-7), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1 int64) {
		checkDecimalOrder(t, a0, b0)
		checkDecimalOrder(t, a1, b1)
		for _, x := range []int64{a0, a1, b0, b1} {
			if x != int64(logic.NodeID(x)) {
				return
			}
		}
		a := []logic.NodeID{logic.NodeID(a0), logic.NodeID(a1)}
		b := []logic.NodeID{logic.NodeID(b0), logic.NodeID(b1)}
		checkBindingOrder(t, a, b)
		checkBindingOrder(t, a[1:], b[1:])
	})
}

func TestNoMatchAtPI(t *testing.T) {
	sub := buildSubject(t, func(n *logic.Network) {
		a := n.AddPI("a")
		x := n.AddLogic("x", []logic.NodeID{a.ID}, logic.NotSOP())
		n.MarkPO(x.ID, "x")
	})
	mt := NewMatcher(sub, library.Big())
	if got := mt.AtNode(sub.PIs[0]); got != nil {
		t.Errorf("matches at PI: %v", got)
	}
}

func TestEveryBaseNodeHasAMatch(t *testing.T) {
	// On a realistic subject graph, every NAND2/INV node must have at
	// least the base-cell match (nand2/inv are in the library), or
	// covering would be infeasible.
	src := bench.Random(3, 10, 5, 60, 4)
	res, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Inchoate
	mt := NewMatcher(sub, library.Big())
	for _, nd := range sub.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		matches := mt.AtNode(nd.ID)
		if len(matches) == 0 {
			t.Fatalf("node %s has no matches", nd.Name)
		}
		base := false
		for _, m := range matches {
			if m.Gate.Name == "nand2" || m.Gate.Name == "inv" {
				base = true
			}
		}
		if !base {
			t.Errorf("node %s lacks a base-cell match", nd.Name)
		}
	}
}

func TestAllMatchesVerifyOnRandomSubject(t *testing.T) {
	src := bench.Random(9, 8, 4, 40, 4)
	res, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Inchoate
	mt := NewMatcher(sub, library.Big())
	total := 0
	for _, nd := range sub.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		for _, m := range mt.AtNode(nd.ID) {
			total++
			if err := Verify(sub, &m); err != nil {
				t.Fatal(err)
			}
			if m.Root() != nd.ID {
				t.Fatalf("match root %d != node %d", m.Root(), nd.ID)
			}
		}
	}
	if total == 0 {
		t.Fatal("no matches found at all")
	}
}

func TestInternalFanoutFree(t *testing.T) {
	// Build x = AND(a,b) feeding two consumers; the NAND inside the AND
	// premap has external fanout only if shared. Construct a case where a
	// merged node fans out: y = INV(nandNode) and z uses nandNode too.
	src := logic.New("t")
	a := src.AddPI("a")
	b := src.AddPI("b")
	nd := src.AddLogic("nab", []logic.NodeID{a.ID, b.ID}, logic.NandSOP(2))
	x := src.AddLogic("x", []logic.NodeID{nd.ID}, logic.NotSOP())
	src.MarkPO(x.ID, "x")
	src.MarkPO(nd.ID, "nab") // the NAND itself is observable
	res, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Inchoate
	mt := NewMatcher(sub, library.Big())
	// At the INV root, and2 matches but its merged NAND is a PO: not
	// fanout-free.
	invRoot := res.Root[x.ID]
	for _, m := range mt.AtNode(invRoot) {
		if m.Gate.Name == "and2" {
			if InternalFanoutFree(sub, &m) {
				t.Error("and2 over an observable NAND should not be fanout-free")
			}
		}
		if m.Gate.Name == "inv" {
			if !InternalFanoutFree(sub, &m) {
				t.Error("inv match must be fanout-free (no internal nodes)")
			}
		}
	}
}

package logic

import (
	"math"
	"slices"
	"strconv"
	"testing"
)

// buildAdder builds a 1-bit full adder: sum = a^b^cin, cout = ab + cin(a^b).
func buildAdder(t *testing.T) *Network {
	t.Helper()
	n := New("adder")
	a := n.AddPI("a")
	b := n.AddPI("b")
	cin := n.AddPI("cin")
	axb := n.AddLogic("axb", []NodeID{a.ID, b.ID}, XorSOP(2))
	sum := n.AddLogic("sum", []NodeID{axb.ID, cin.ID}, XorSOP(2))
	ab := n.AddLogic("ab", []NodeID{a.ID, b.ID}, AndSOP(2))
	cx := n.AddLogic("cx", []NodeID{cin.ID, axb.ID}, AndSOP(2))
	cout := n.AddLogic("cout", []NodeID{ab.ID, cx.ID}, OrSOP(2))
	n.MarkPO(sum.ID, "sum")
	n.MarkPO(cout.ID, "cout")
	if err := n.Check(); err != nil {
		t.Fatalf("adder check: %v", err)
	}
	return n
}

func TestAdderTruth(t *testing.T) {
	n := buildAdder(t)
	for r := 0; r < 8; r++ {
		a, b, c := r&1 != 0, r&2 != 0, r&4 != 0
		out, err := n.Eval(map[string]bool{"a": a, "b": b, "cin": c})
		if err != nil {
			t.Fatal(err)
		}
		ones := 0
		for _, v := range []bool{a, b, c} {
			if v {
				ones++
			}
		}
		if out["sum"] != (ones%2 == 1) {
			t.Errorf("sum(%v %v %v) = %v", a, b, c, out["sum"])
		}
		if out["cout"] != (ones >= 2) {
			t.Errorf("cout(%v %v %v) = %v", a, b, c, out["cout"])
		}
	}
}

func TestTopoOrderProperty(t *testing.T) {
	n := buildAdder(t)
	order, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	if len(order) != numLive(n) {
		t.Fatalf("topo order covers %d of %d nodes", len(order), numLive(n))
	}
	for _, nd := range n.Nodes {
		if nd == nil {
			continue
		}
		for _, f := range nd.Fanins {
			if pos[f] >= pos[nd.ID] {
				t.Fatalf("fanin %d not before node %d", f, nd.ID)
			}
		}
	}
}

func TestFanoutBookkeeping(t *testing.T) {
	n := buildAdder(t)
	axb := n.NodeByName("axb")
	if got := n.FanoutCount(axb.ID); got != 2 {
		t.Errorf("axb fanout = %d, want 2", got)
	}
	// sum is a PO: one fanout edge (none structural) plus PO ref.
	sum := n.NodeByName("sum")
	if got := n.FanoutCount(sum.ID); got != 1 {
		t.Errorf("sum fanout = %d, want 1 (PO ref)", got)
	}
	// A node listed as an output twice counts twice, a PI can be an
	// output, and a clone keeps the counts.
	a := n.NodeByName("a")
	n.MarkPO(sum.ID, "sum2")
	n.MarkPO(a.ID, "a_out")
	for _, net := range []*Network{n, n.Clone()} {
		if err := net.Check(); err != nil {
			t.Fatal(err)
		}
		if got := net.FanoutCount(sum.ID); got != 2 {
			t.Errorf("sum fanout = %d, want 2 (two PO refs)", got)
		}
		if !net.IsPO(sum.ID) || net.IsPO(axb.ID) || !net.IsPO(a.ID) {
			t.Errorf("IsPO(sum, axb, a) = %v, %v, %v; want true, false, true",
				net.IsPO(sum.ID), net.IsPO(axb.ID), net.IsPO(a.ID))
		}
	}
}

func TestReplaceFanin(t *testing.T) {
	n := buildAdder(t)
	a := n.NodeByName("a")
	b := n.NodeByName("b")
	ab := n.NodeByName("ab")
	n.ReplaceFanin(ab.ID, a.ID, b.ID) // ab now computes b AND b = b
	if err := n.Check(); err != nil {
		t.Fatalf("check after rewire: %v", err)
	}
	out, err := n.Eval(map[string]bool{"a": false, "b": true, "cin": false})
	if err != nil {
		t.Fatal(err)
	}
	if !out["cout"] {
		t.Error("after rewiring ab to b&b, cout(0,1,0) should be 1")
	}
}

func TestDeleteAndSweep(t *testing.T) {
	n := buildAdder(t)
	// Add a dangling node and a buffer chain; Sweep must remove them.
	a := n.NodeByName("a")
	dead := n.AddLogic("dead", []NodeID{a.ID}, NotSOP())
	_ = dead
	buf1 := n.AddLogic("buf1", []NodeID{a.ID}, BufSOP())
	n.AddLogic("dead2", []NodeID{buf1.ID}, NotSOP())
	before := numLive(n)
	removed := n.Sweep()
	if removed == 0 {
		t.Fatal("sweep removed nothing")
	}
	if numLive(n) != before-removed {
		t.Errorf("live count inconsistent: %d -> %d with %d removed", before, numLive(n), removed)
	}
	if n.NodeByName("dead") != nil || n.NodeByName("dead2") != nil || n.NodeByName("buf1") != nil {
		t.Error("sweep left dead nodes behind")
	}
	if err := n.Check(); err != nil {
		t.Fatalf("check after sweep: %v", err)
	}
}

func TestDeletePanicsOnLiveNode(t *testing.T) {
	n := buildAdder(t)
	defer func() {
		if recover() == nil {
			t.Error("Delete of live node did not panic")
		}
	}()
	n.Delete(n.NodeByName("axb").ID)
}

func TestDuplicateNamePanics(t *testing.T) {
	n := New("x")
	n.AddPI("a")
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	n.AddPI("a")
}

func TestConeMembers(t *testing.T) {
	n := buildAdder(t)
	cone := make(map[NodeID]bool)
	for _, id := range n.ReverseDFS(n.NodeByName("sum").ID, nil) {
		cone[id] = true
	}
	for _, want := range []string{"sum", "axb", "a", "b", "cin"} {
		if !cone[n.NodeByName(want).ID] {
			t.Errorf("cone(sum) missing %s", want)
		}
	}
	for _, not := range []string{"ab", "cx", "cout"} {
		if cone[n.NodeByName(not).ID] {
			t.Errorf("cone(sum) wrongly contains %s", not)
		}
	}
}

func TestReverseDFSOrder(t *testing.T) {
	n := buildAdder(t)
	order := n.ReverseDFS(n.NodeByName("cout").ID, nil)
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range order {
		for _, f := range n.Nodes[id].Fanins {
			if pos[f] >= pos[id] {
				t.Fatalf("reverse DFS: fanin %d after node %d", f, id)
			}
		}
	}
	if order[len(order)-1] != n.NodeByName("cout").ID {
		t.Error("root not last in reverse DFS")
	}
}

// TestReverseDFSScratchReuse: a walk through a reused scratch returns
// exactly the fresh walk's order, whatever walks the scratch made before.
func TestReverseDFSScratchReuse(t *testing.T) {
	n := buildAdder(t)
	var s DFSScratch
	for round := 0; round < 3; round++ {
		for _, po := range n.POs {
			want := n.ReverseDFS(po, nil)
			got := n.ReverseDFS(po, &s)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d, root %d: scratch walk %v, fresh walk %v", round, po, got, want)
			}
		}
	}
}

func TestLevelsAndDepth(t *testing.T) {
	n := buildAdder(t)
	lv := n.Levels()
	if lv[n.NodeByName("a").ID] != 0 {
		t.Error("PI level != 0")
	}
	if lv[n.NodeByName("sum").ID] != 2 {
		t.Errorf("sum level = %d, want 2", lv[n.NodeByName("sum").ID])
	}
	if n.Depth() != 3 {
		t.Errorf("depth = %d, want 3 (cout path)", n.Depth())
	}
}

func TestExitLines(t *testing.T) {
	n := buildAdder(t)
	m := n.ExitLines()
	// axb is in cone(sum) [index 0] and feeds cx in cone(cout) [index 1];
	// PIs a,b,cin are in both cones. Exit lines from cone 0 to cone 1:
	// a->ab, b->ab, cin->cx, axb->cx = 4.
	if m[0][1] != 4 {
		t.Errorf("E(K_sum, K_cout) = %d, want 4", m[0][1])
	}
	if m[0][0] != 0 || m[1][1] != 0 {
		t.Error("diagonal not zero")
	}
}

func TestStat(t *testing.T) {
	n := buildAdder(t)
	s := n.Stat()
	if s.PIs != 3 || s.POs != 2 || s.Logic != 5 {
		t.Errorf("stat = %+v", s)
	}
	if s.Depth != 3 || s.MaxFanin != 2 {
		t.Errorf("stat depth/fanin = %+v", s)
	}
}

func TestCycleDetected(t *testing.T) {
	n := New("cyc")
	a := n.AddPI("a")
	x := n.AddLogic("x", []NodeID{a.ID}, NotSOP())
	y := n.AddLogic("y", []NodeID{x.ID}, NotSOP())
	// Force a cycle behind the API's back.
	x.Fanins[0] = y.ID
	n.Nodes[y.ID].fanouts = append(n.Nodes[y.ID].fanouts, x.ID)
	n.removeFanoutRefs(a.ID, x.ID, 1)
	if _, err := n.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
}

// numLive returns the number of non-deleted nodes.
func numLive(n *Network) int {
	c := 0
	for _, nd := range n.Nodes {
		if nd != nil {
			c++
		}
	}
	return c
}

// TestNextIDRange: the last node number that fits a NodeID becomes
// math.MaxInt32, and the one after it panics instead of wrapping
// negative. The check runs on the number alone, so no network that large
// is built.
func TestNextIDRange(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("an int cannot pass math.MaxInt32")
	}
	if got := nextID(math.MaxInt32); got != math.MaxInt32 {
		t.Fatalf("nextID(MaxInt32) = %d", got)
	}
	past := math.MaxInt32
	past++
	defer func() {
		if recover() == nil {
			t.Error("nextID past math.MaxInt32 did not panic")
		}
	}()
	nextID(past)
}

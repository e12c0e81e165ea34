package logic

import (
	"math/rand"
	"slices"
	"testing"
)

// randomNet builds a small random network directly (independent of the
// bench generator, to avoid an import cycle).
func randomNet(rng *rand.Rand, pis, nodes int) *Network {
	n := New("prop")
	ids := make([]NodeID, 0, pis+nodes)
	for i := 0; i < pis; i++ {
		ids = append(ids, n.AddPI(string(rune('a'+i))).ID)
	}
	for k := 0; k < nodes; k++ {
		fi := 1 + rng.Intn(3)
		if fi > len(ids) {
			fi = len(ids)
		}
		fanins := make([]NodeID, 0, fi)
		seen := map[NodeID]bool{}
		for len(fanins) < fi {
			c := ids[rng.Intn(len(ids))]
			if !seen[c] {
				seen[c] = true
				fanins = append(fanins, c)
			}
		}
		var cover SOP
		switch rng.Intn(4) {
		case 0:
			cover = AndSOP(fi)
		case 1:
			cover = OrSOP(fi)
		case 2:
			cover = NandSOP(fi)
		default:
			cover = NorSOP(fi)
		}
		nd := n.AddLogic("", fanins, cover)
		ids = append(ids, nd.ID)
	}
	// Mark a few deep nodes as POs.
	for i := 0; i < 3 && i < nodes; i++ {
		n.MarkPO(ids[len(ids)-1-i], "")
	}
	return n
}

func evalAll(t *testing.T, n *Network, seed int64, trials int) []map[string]bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var outs []map[string]bool
	for k := 0; k < trials; k++ {
		in := map[string]bool{}
		for _, pi := range n.PIs {
			in[n.Nodes[pi].Name] = rng.Intn(2) == 1
		}
		o, err := n.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, o)
	}
	return outs
}

// Property: Sweep never changes the function visible at the POs.
func TestSweepPreservesFunction(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := randomNet(rng, 4, 20)
		before := evalAll(t, n, 99, 10)
		n.Sweep()
		if err := n.Check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		after := evalAll(t, n, 99, 10)
		for k := range before {
			for name := range before[k] {
				if before[k][name] != after[k][name] {
					t.Fatalf("trial %d: sweep changed output %s", trial, name)
				}
			}
		}
	}
}

// Property: Clone is deep — mutating the clone never affects the original.
func TestClonePropertyIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := randomNet(rng, 4, 15)
	before := evalAll(t, n, 7, 8)
	c := n.Clone()
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	// Mutilate the clone.
	for _, nd := range c.Nodes {
		if nd != nil && nd.Kind == KindLogic {
			nd.Cover = NorSOP(len(nd.Fanins))
		}
	}
	after := evalAll(t, n, 7, 8)
	for k := range before {
		for name := range before[k] {
			if before[k][name] != after[k][name] {
				t.Fatal("clone mutation leaked into the original")
			}
		}
	}
}

// Property: clone evaluates identically to the original.
func TestCloneEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := randomNet(rng, 5, 25)
	c := n.Clone()
	a := evalAll(t, n, 13, 12)
	b := evalAll(t, c, 13, 12)
	for k := range a {
		for name := range a[k] {
			if a[k][name] != b[k][name] {
				t.Fatal("clone differs from original")
			}
		}
	}
}

// Property: topological order is stable under Check (no mutation).
func TestCheckIsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := randomNet(rng, 4, 18)
	s1 := n.Stat()
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	s2 := n.Stat()
	if s1 != s2 {
		t.Errorf("Check mutated the network: %v -> %v", s1, s2)
	}
}

// RemoveFanin + AttachFanout are exact inverses on the fanout lists.
func TestRemoveAttachFaninRoundTrip(t *testing.T) {
	n := New("rt")
	a := n.AddPI("a")
	b := n.AddPI("b")
	x := n.AddLogic("x", []NodeID{a.ID, b.ID}, AndSOP(2))
	n.MarkPO(x.ID, "x")
	n.RemoveFanin(x.ID, 0)
	if slices.Contains(n.Fanouts(a.ID), x.ID) {
		t.Fatal("fanout not removed")
	}
	x.Fanins = append([]NodeID{a.ID}, x.Fanins...)
	n.AttachFanout(a.ID, x.ID)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
}

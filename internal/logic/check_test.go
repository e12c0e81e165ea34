package logic

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCheck is the direct form of Network.Check: each fanin and fanout
// entry is checked by counting through the other side's list, which is
// quadratic in a node's fanout. Check must return the same first error.
func refCheck(n *Network) error {
	countOf := func(s []NodeID, x NodeID) int {
		c := 0
		for _, v := range s {
			if v == x {
				c++
			}
		}
		return c
	}
	for _, nd := range n.Nodes {
		if nd == nil {
			continue
		}
		if nd.Kind == KindLogic && nd.Cover.NumInputs != len(nd.Fanins) {
			return fmt.Errorf("node %q: cover width %d != %d fanins", nd.Name, nd.Cover.NumInputs, len(nd.Fanins))
		}
		if nd.Kind == KindPI && len(nd.Fanins) != 0 {
			return fmt.Errorf("PI %q has fanins", nd.Name)
		}
		for _, f := range nd.Fanins {
			fn := n.Node(f)
			if fn == nil {
				return fmt.Errorf("node %q references deleted fanin %d", nd.Name, f)
			}
			if countOf(fn.fanouts, nd.ID) < countOf(nd.Fanins, f) {
				return fmt.Errorf("fanout list of %q inconsistent with fanins of %q", fn.Name, nd.Name)
			}
		}
		for _, f := range nd.fanouts {
			fn := n.Node(f)
			if fn == nil {
				return fmt.Errorf("node %q has deleted fanout %d", nd.Name, f)
			}
			if countOf(fn.Fanins, nd.ID) == 0 {
				return fmt.Errorf("node %q lists fanout %q which does not use it", nd.Name, fn.Name)
			}
		}
	}
	for i, po := range n.POs {
		if n.Node(po) == nil {
			return fmt.Errorf("PO %q references deleted node %d", n.PONames[i], po)
		}
	}
	_, err := n.TopoOrder()
	return err
}

// checkNet is the network every rejection case corrupts: PIs a and b,
// x = a·b, y = ¬x, output y, and a deleted node z (ID 4).
func checkNet() *Network {
	n := New("chk")
	a := n.AddPI("a")
	b := n.AddPI("b")
	x := n.AddLogic("x", []NodeID{a.ID, b.ID}, AndSOP(2))
	y := n.AddLogic("y", []NodeID{x.ID}, NotSOP())
	n.MarkPO(y.ID, "y")
	z := n.AddLogic("z", []NodeID{a.ID}, NotSOP())
	n.Delete(z.ID)
	return n
}

// TestCheckRejections: every structural violation Check knows is caught,
// with its message, and matches the reference.
func TestCheckRejections(t *testing.T) {
	const a, b, x, y, z = 0, 1, 2, 3, 4
	cases := []struct {
		name    string
		corrupt func(n *Network)
		want    string
	}{
		{"missing fanout entry", func(n *Network) { n.removeFanoutRefs(a, x, 1) },
			`fanout list of "a" inconsistent with fanins of "x"`},
		{"extra fanout entry", func(n *Network) { n.AttachFanout(b, y) },
			`node "b" lists fanout "y" which does not use it`},
		{"doubled-fanin multiplicity", func(n *Network) {
			n.Nodes[x].Fanins[1] = a
			n.removeFanoutRefs(b, x, 1)
		}, `fanout list of "a" inconsistent with fanins of "x"`},
		{"deleted fanin", func(n *Network) {
			n.Nodes[x].Fanins[0] = z
			n.removeFanoutRefs(a, x, 1)
		}, `node "x" references deleted fanin 4`},
		{"deleted fanout", func(n *Network) { n.AttachFanout(a, z) },
			`node "a" has deleted fanout 4`},
		{"PI with fanins", func(n *Network) {
			n.Nodes[b].Fanins = []NodeID{a}
			n.AttachFanout(a, b)
		}, `PI "b" has fanins`},
		{"cover width mismatch", func(n *Network) { n.Nodes[x].Cover = AndSOP(3) },
			`node "x": cover width 3 != 2 fanins`},
		{"dead PO", func(n *Network) {
			n.POs = append(n.POs, z)
			n.PONames = append(n.PONames, "w")
		}, `PO "w" references deleted node 4`},
		{"cycle", func(n *Network) {
			n.Nodes[x].Fanins[1] = y
			n.removeFanoutRefs(b, x, 1)
			n.AttachFanout(y, x)
		}, `logic: combinational cycle through node "x"`},
	}
	if err := checkNet().Check(); err != nil {
		t.Fatalf("uncorrupted network rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := checkNet()
			tc.corrupt(n)
			err := n.Check()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Check = %v, want %q", err, tc.want)
			}
			if ref := refCheck(n); ref == nil || ref.Error() != err.Error() {
				t.Errorf("reference Check = %v", ref)
			}
		})
	}
}

// TestCheckMatchesReference corrupts random networks by one random list
// edit each and requires Check and the reference to agree on the first
// error, or on none.
func TestCheckMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rejected := 0
	for k := 0; k < 2000; k++ {
		n := randomNet(rng, 2+rng.Intn(4), 1+rng.Intn(20))
		if k%4 == 0 { // leave a deleted slot to point at
			n.Delete(n.AddLogic("dead", []NodeID{n.PIs[0]}, NotSOP()).ID)
		}
		nd := n.Nodes[rng.Intn(len(n.Nodes))]
		if nd == nil {
			continue
		}
		id := NodeID(rng.Intn(len(n.Nodes)+1) - 1) // -1 .. past the end
		switch rng.Intn(4) {
		case 0:
			nd.fanouts = append(nd.fanouts, id)
		case 1:
			if len(nd.fanouts) > 0 {
				nd.fanouts[rng.Intn(len(nd.fanouts))] = id
			}
		case 2:
			if len(nd.Fanins) > 0 {
				nd.Fanins[rng.Intn(len(nd.Fanins))] = id
			}
		case 3:
			if len(nd.fanouts) > 0 {
				nd.fanouts = nd.fanouts[1:]
			}
		}
		got, want := n.Check(), refCheck(n)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("network %d: Check = %v, reference = %v", k, got, want)
		}
		if got != nil {
			rejected++
		}
	}
	if rejected < 500 {
		t.Errorf("only %d of 2000 corruptions rejected; the test exercises too little", rejected)
	}
}

// BenchmarkNetworkCheck times Check where one input feeds 40,000 nodes,
// the shape that made the direct form quadratic, and where one node has
// 40,000 fanins.
func BenchmarkNetworkCheck(b *testing.B) {
	const width = 40000
	fanout := New("fanout")
	a := fanout.AddPI("a")
	for i := 0; i < width; i++ {
		fanout.MarkPO(fanout.AddLogic(fmt.Sprintf("n%d", i), []NodeID{a.ID}, NotSOP()).ID, fmt.Sprintf("o%d", i))
	}
	fanin := New("fanin")
	ins := make([]NodeID, width)
	for i := range ins {
		ins[i] = fanin.AddPI(fmt.Sprintf("i%d", i)).ID
	}
	fanin.MarkPO(fanin.AddLogic("y", ins, OrSOP(width)).ID, "y")
	for _, bc := range []struct {
		name string
		n    *Network
	}{{"fanout40000", fanout}, {"fanin40000", fanin}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.n.Check(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

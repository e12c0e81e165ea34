package logic

import (
	"fmt"
	"math"
)

// NodeID identifies a node inside one Network. IDs are dense indices into
// Network.Nodes and are never reused within a network's lifetime; deleted
// nodes leave a nil slot. Four bytes hold every ID a network can reach
// (addNode refuses to pass math.MaxInt32) and halve the size of the
// per-node ID lists the mappers keep, match lists above all.
type NodeID int32

// InvalidNode is the zero-value "no node" sentinel.
const InvalidNode NodeID = -1

// Kind distinguishes the two node classes of a combinational network.
type Kind byte

const (
	// KindPI is a primary input; it has no fanins and no function.
	KindPI Kind = iota
	// KindLogic is an internal node computing an SOP over its fanins.
	KindLogic
)

func (k Kind) String() string {
	if k == KindPI {
		return "pi"
	}
	return "logic"
}

// Node is one vertex of a Boolean network.
type Node struct {
	ID     NodeID
	Name   string
	Kind   Kind
	Fanins []NodeID
	// Cover is the node function over Fanins (positional); unused for PIs.
	Cover SOP
	// fanouts is maintained by the Network on every structural edit.
	fanouts []NodeID
	// poRefs counts the entries of Network.POs that name this node.
	poRefs int
}

// Network is a combinational Boolean network: a DAG of logic nodes over
// primary inputs, with an ordered list of primary outputs referencing nodes.
// POs and PONames grow only through MarkPO, which also keeps each node's
// count of its entries.
type Network struct {
	Name    string
	Nodes   []*Node
	PIs     []NodeID
	POs     []NodeID
	PONames []string

	byName map[string]NodeID
}

// New returns an empty network with the given name.
func New(name string) *Network {
	return &Network{Name: name, byName: make(map[string]NodeID)}
}

// Node returns the node with the given ID, or nil if it was deleted.
func (n *Network) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(n.Nodes) {
		return nil
	}
	return n.Nodes[id]
}

// NodeByName returns the node with the given name, or nil.
func (n *Network) NodeByName(name string) *Node {
	id, ok := n.byName[name]
	if !ok {
		return nil
	}
	return n.Nodes[id]
}

// NumLogic returns the number of live logic (non-PI) nodes.
func (n *Network) NumLogic() int {
	c := 0
	for _, nd := range n.Nodes {
		if nd != nil && nd.Kind == KindLogic {
			c++
		}
	}
	return c
}

// AddPI creates a primary input with the given name.
func (n *Network) AddPI(name string) *Node {
	nd := n.addNode(name, KindPI, nil, SOP{})
	n.PIs = append(n.PIs, nd.ID)
	return nd
}

// AddLogic creates an internal node computing cover over the given fanins.
// The cover width must equal len(fanins).
func (n *Network) AddLogic(name string, fanins []NodeID, cover SOP) *Node {
	if cover.NumInputs != len(fanins) {
		panic(fmt.Sprintf("logic: node %q cover width %d != fanin count %d",
			name, cover.NumInputs, len(fanins)))
	}
	for _, f := range fanins {
		if n.Node(f) == nil {
			panic(fmt.Sprintf("logic: node %q references missing fanin %d", name, f))
		}
	}
	nd := n.addNode(name, KindLogic, append([]NodeID(nil), fanins...), cover)
	for _, f := range fanins {
		n.Nodes[f].fanouts = append(n.Nodes[f].fanouts, nd.ID)
	}
	return nd
}

func (n *Network) addNode(name string, kind Kind, fanins []NodeID, cover SOP) *Node {
	if name == "" {
		name = fmt.Sprintf("n%d", len(n.Nodes))
	}
	if _, dup := n.byName[name]; dup {
		panic(fmt.Sprintf("logic: duplicate node name %q", name))
	}
	nd := &Node{ID: nextID(len(n.Nodes)), Name: name, Kind: kind, Fanins: fanins, Cover: cover}
	n.Nodes = append(n.Nodes, nd)
	n.byName[name] = nd.ID
	return nd
}

// nextID returns the ID of a network's node number i. It panics rather
// than let an ID pass math.MaxInt32 and wrap.
func nextID(i int) NodeID {
	if i > math.MaxInt32 {
		panic(fmt.Sprintf("logic: node %d is past the NodeID range (at most %d)", i, math.MaxInt32))
	}
	return NodeID(i)
}

// MarkPO declares node id as a primary output under the given external name
// (which may differ from the node's internal name).
func (n *Network) MarkPO(id NodeID, name string) {
	if n.Node(id) == nil {
		panic(fmt.Sprintf("logic: MarkPO on missing node %d", id))
	}
	if name == "" {
		name = n.Nodes[id].Name
	}
	n.POs = append(n.POs, id)
	n.PONames = append(n.PONames, name)
	n.Nodes[id].poRefs++
}

// IsPO reports whether id is listed as a primary output.
func (n *Network) IsPO(id NodeID) bool {
	nd := n.Node(id)
	return nd != nil && nd.poRefs > 0
}

// Fanouts returns the fanout node IDs of id. The returned slice is owned by
// the network and must not be modified.
func (n *Network) Fanouts(id NodeID) []NodeID { return n.Nodes[id].fanouts }

// FanoutCount returns the number of fanout edges of id, counting an edge
// once per fanin position (a node using id twice counts twice), plus one
// per PO reference.
func (n *Network) FanoutCount(id NodeID) int {
	nd := n.Nodes[id]
	return len(nd.fanouts) + nd.poRefs
}

// ReplaceFanin rewires every fanin reference of node id from oldF to newF
// and fixes the fanout lists on both sides.
func (n *Network) ReplaceFanin(id, oldF, newF NodeID) {
	nd := n.Nodes[id]
	changed := 0
	for i, f := range nd.Fanins {
		if f == oldF {
			nd.Fanins[i] = newF
			changed++
		}
	}
	if changed == 0 {
		return
	}
	n.removeFanoutRefs(oldF, id, changed)
	for i := 0; i < changed; i++ {
		n.Nodes[newF].fanouts = append(n.Nodes[newF].fanouts, id)
	}
}

func (n *Network) removeFanoutRefs(from, to NodeID, count int) {
	fo := n.Nodes[from].fanouts
	out := fo[:0]
	for _, f := range fo {
		if f == to && count > 0 {
			count--
			continue
		}
		out = append(out, f)
	}
	n.Nodes[from].fanouts = out
}

// AttachFanout records that node to now lists from among its fanins; used
// by transformations that extend a fanin list in place. The caller must
// have appended from to to's Fanins (and widened the cover) itself.
func (n *Network) AttachFanout(from, to NodeID) {
	n.Nodes[from].fanouts = append(n.Nodes[from].fanouts, to)
}

// RemoveFanin deletes fanin position i of node id, fixing the fanout list
// of the detached driver. The caller must update the node's cover to the
// reduced width (the network is temporarily inconsistent in between).
func (n *Network) RemoveFanin(id NodeID, i int) {
	nd := n.Nodes[id]
	f := nd.Fanins[i]
	nd.Fanins = append(nd.Fanins[:i], nd.Fanins[i+1:]...)
	n.removeFanoutRefs(f, id, 1)
}

// Delete removes a node with no fanouts and no PO references from the
// network. It panics if the node is still in use.
func (n *Network) Delete(id NodeID) {
	nd := n.Node(id)
	if nd == nil {
		return
	}
	if len(nd.fanouts) > 0 || n.IsPO(id) {
		panic(fmt.Sprintf("logic: delete of live node %q", nd.Name))
	}
	for _, f := range nd.Fanins {
		n.removeFanoutRefs(f, id, 1)
	}
	delete(n.byName, nd.Name)
	n.Nodes[id] = nil
}

// Clone returns a deep copy of the network with identical node IDs.
func (n *Network) Clone() *Network {
	c := New(n.Name)
	c.Nodes = make([]*Node, len(n.Nodes))
	for id, nd := range n.Nodes {
		if nd == nil {
			continue
		}
		c.Nodes[id] = &Node{
			ID:      nd.ID,
			Name:    nd.Name,
			Kind:    nd.Kind,
			Fanins:  append([]NodeID(nil), nd.Fanins...),
			Cover:   nd.Cover.Clone(),
			fanouts: append([]NodeID(nil), nd.fanouts...),
			poRefs:  nd.poRefs,
		}
		c.byName[nd.Name] = nd.ID
	}
	c.PIs = append([]NodeID(nil), n.PIs...)
	c.POs = append([]NodeID(nil), n.POs...)
	c.PONames = append([]string(nil), n.PONames...)
	return c
}

// Check validates structural invariants: fanin/fanout symmetry, acyclicity,
// cover widths, live PO references and each node's count of them. It
// returns the first violation found.
// It is linear in nodes plus pins: each node checks its own lists with one
// multiset count over the other side's view of it.
func (n *Network) Check() error {
	// drivers.of(x) holds every live node whose fanout list names x, once
	// per entry; users.of(x) every live node whose fanin list names x.
	drivers := n.invert(func(nd *Node) []NodeID { return nd.fanouts })
	users := n.invert(func(nd *Node) []NodeID { return nd.Fanins })
	count := make([]int32, len(n.Nodes))
	tally := func(ids []int32, d int32) {
		for _, u := range ids {
			count[u] += d
		}
	}
	for id, nd := range n.Nodes {
		if nd == nil {
			continue
		}
		if nd.Kind == KindLogic && nd.Cover.NumInputs != len(nd.Fanins) {
			return fmt.Errorf("node %q: cover width %d != %d fanins", nd.Name, nd.Cover.NumInputs, len(nd.Fanins))
		}
		if nd.Kind == KindPI && len(nd.Fanins) != 0 {
			return fmt.Errorf("PI %q has fanins", nd.Name)
		}
		// Each fanin must list nd as a fanout at least as often as nd
		// lists it.
		tally(drivers.of(id), 1)
		for _, f := range nd.Fanins {
			if n.Node(f) != nil {
				count[f]--
			}
		}
		for _, f := range nd.Fanins {
			fn := n.Node(f)
			if fn == nil {
				return fmt.Errorf("node %q references deleted fanin %d", nd.Name, f)
			}
			if count[f] < 0 {
				return fmt.Errorf("fanout list of %q inconsistent with fanins of %q", fn.Name, nd.Name)
			}
		}
		tally(drivers.of(id), -1)
		for _, f := range nd.Fanins {
			count[f]++
		}
		// Each fanout must list nd as a fanin.
		tally(users.of(id), 1)
		for _, f := range nd.fanouts {
			fn := n.Node(f)
			if fn == nil {
				return fmt.Errorf("node %q has deleted fanout %d", nd.Name, f)
			}
			if count[f] == 0 {
				return fmt.Errorf("node %q lists fanout %q which does not use it", nd.Name, fn.Name)
			}
		}
		tally(users.of(id), -1)
	}
	for i, po := range n.POs {
		if n.Node(po) == nil {
			return fmt.Errorf("PO %q references deleted node %d", n.PONames[i], po)
		}
		count[po]++ // every node's turn above left its count at zero
	}
	for id, nd := range n.Nodes {
		if nd != nil && int(count[id]) != nd.poRefs {
			return fmt.Errorf("node %q is counted as %d POs but listed %d times", nd.Name, nd.poRefs, count[id])
		}
	}
	_, err := n.TopoOrder()
	return err
}

// inverse is a multiset adjacency in compressed rows: row x is
// ent[off[x]:off[x+1]].
type inverse struct{ off, ent []int32 }

func (a inverse) of(x int) []int32 { return a.ent[a.off[x]:a.off[x+1]] }

// invert returns, for every node ID x, the live nodes whose list names x,
// once per entry; entries naming no slot of n.Nodes are left out.
func (n *Network) invert(list func(*Node) []NodeID) inverse {
	off := make([]int32, len(n.Nodes)+1)
	each := func(visit func(id int32, x NodeID)) {
		for id, nd := range n.Nodes {
			if nd == nil {
				continue
			}
			for _, x := range list(nd) {
				if x >= 0 && int(x) < len(n.Nodes) {
					visit(int32(id), x)
				}
			}
		}
	}
	each(func(_ int32, x NodeID) { off[x]++ })
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	// off[x] is now the end of row x; filling each row back to front
	// leaves it at the row's start.
	ent := make([]int32, off[len(n.Nodes)])
	each(func(id int32, x NodeID) { off[x]--; ent[off[x]] = id })
	return inverse{off, ent}
}

// TopoOrder returns all live node IDs in topological order (fanins before
// fanouts). It returns an error if the network contains a cycle.
func (n *Network) TopoOrder() ([]NodeID, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(n.Nodes))
	order := make([]NodeID, 0, len(n.Nodes))
	// Iterative DFS to avoid stack depth limits on deep networks.
	type frame struct {
		id  NodeID
		idx int
	}
	var stack []frame
	for root := range n.Nodes {
		if n.Nodes[root] == nil || color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], frame{NodeID(root), 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			nd := n.Nodes[f.id]
			if f.idx < len(nd.Fanins) {
				child := nd.Fanins[f.idx]
				f.idx++
				switch color[child] {
				case white:
					color[child] = gray
					stack = append(stack, frame{child, 0})
				case gray:
					return nil, fmt.Errorf("logic: combinational cycle through node %q", n.Nodes[child].Name)
				}
				continue
			}
			color[f.id] = black
			order = append(order, f.id)
			stack = stack[:len(stack)-1]
		}
	}
	return order, nil
}

// Eval simulates the network under the given PI assignment (keyed by PI
// name) and returns the PO values keyed by PO name.
func (n *Network) Eval(in map[string]bool) (map[string]bool, error) {
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	val := make([]bool, len(n.Nodes))
	for _, pi := range n.PIs {
		v, ok := in[n.Nodes[pi].Name]
		if !ok {
			return nil, fmt.Errorf("logic: missing input value for PI %q", n.Nodes[pi].Name)
		}
		val[pi] = v
	}
	buf := make([]bool, 0, 16)
	for _, id := range order {
		nd := n.Nodes[id]
		if nd.Kind != KindLogic {
			continue
		}
		buf = buf[:0]
		for _, f := range nd.Fanins {
			buf = append(buf, val[f])
		}
		val[id] = nd.Cover.Eval(buf)
	}
	out := make(map[string]bool, len(n.POs))
	for i, po := range n.POs {
		out[n.PONames[i]] = val[po]
	}
	return out, nil
}

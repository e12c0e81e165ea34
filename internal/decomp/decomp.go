// Package decomp premaps an optimized Boolean network into the NAND2/INV
// subject graph — the paper's "inchoate network" N_inchoate (§2). Every
// logic node of the result computes either a 2-input NAND or an inverter,
// the base-function set used by DAGON and MIS.
//
// Two decomposition policies are provided. Premap builds balanced trees
// over each node's literals. PremapPlaced implements the layout-oriented
// decomposition the paper motivates with Figure 1.1(b): given positions for
// the source signals (from a companion placement), the fanin leaves of each
// decomposition tree are ordered by recursive spatial bipartition so that
// signals coming from nearby regions of the placement enter the tree at
// topologically near points, preserving the mapper's option of splitting
// one large match into smaller ones along spatial cluster boundaries.
package decomp

import (
	"fmt"
	"sort"

	"lily/internal/geom"
	"lily/internal/logic"
)

// Result is the outcome of premapping.
type Result struct {
	// Inchoate is the NAND2/INV subject graph.
	Inchoate *logic.Network
	// Root maps each live node of the source network to the subject-graph
	// node implementing its output (PIs map to subject-graph PIs).
	Root map[logic.NodeID]logic.NodeID
}

// Premap decomposes src into the NAND2/INV subject graph using balanced
// literal trees.
func Premap(src *logic.Network) (*Result, error) {
	return premap(src, nil)
}

// PremapPlaced decomposes src with layout-driven leaf ordering. pos gives a
// position for every source node (typically from a quick placement of the
// source network or of a previous subject graph); leaves of each
// decomposition tree are ordered by recursive alternating median splits of
// their positions.
func PremapPlaced(src *logic.Network, pos map[logic.NodeID]geom.Point) (*Result, error) {
	if pos == nil {
		return nil, fmt.Errorf("decomp: PremapPlaced requires positions")
	}
	return premap(src, pos)
}

type builder struct {
	net    *logic.Network
	inv    map[logic.NodeID]logic.NodeID
	nand   map[[2]logic.NodeID]logic.NodeID
	invOf  map[logic.NodeID]logic.NodeID // node -> its source if node is an inverter
	const1 logic.NodeID
	count  int
}

func newBuilder(name string) *builder {
	return &builder{
		net:    logic.New(name),
		inv:    make(map[logic.NodeID]logic.NodeID),
		nand:   make(map[[2]logic.NodeID]logic.NodeID),
		invOf:  make(map[logic.NodeID]logic.NodeID),
		const1: logic.InvalidNode,
	}
}

func (b *builder) fresh() string {
	b.count++
	return fmt.Sprintf("s%d", b.count)
}

// Inv returns a node computing NOT x, collapsing double inversions and
// memoizing one inverter per source signal.
func (b *builder) Inv(x logic.NodeID) logic.NodeID {
	if src, ok := b.invOf[x]; ok {
		return src
	}
	if v, ok := b.inv[x]; ok {
		return v
	}
	nd := b.net.AddLogic(b.fresh(), []logic.NodeID{x}, logic.NotSOP())
	b.inv[x] = nd.ID
	b.invOf[nd.ID] = x
	return nd.ID
}

// Nand2 returns a node computing NAND(x, y), structurally hashed.
func (b *builder) Nand2(x, y logic.NodeID) logic.NodeID {
	if x == y {
		return b.Inv(x)
	}
	key := [2]logic.NodeID{x, y}
	if y < x {
		key = [2]logic.NodeID{y, x}
	}
	if v, ok := b.nand[key]; ok {
		return v
	}
	nd := b.net.AddLogic(b.fresh(), []logic.NodeID{key[0], key[1]}, logic.NandSOP(2))
	b.nand[key] = nd.ID
	return nd.ID
}

func (b *builder) And2(x, y logic.NodeID) logic.NodeID { return b.Inv(b.Nand2(x, y)) }
func (b *builder) Or2(x, y logic.NodeID) logic.NodeID  { return b.Nand2(b.Inv(x), b.Inv(y)) }

// Const1 lazily materializes a constant-1 signal as NAND(x, !x) over the
// first primary input.
func (b *builder) Const1() logic.NodeID {
	if b.const1 != logic.InvalidNode {
		return b.const1
	}
	if len(b.net.PIs) == 0 {
		panic("decomp: constant in a network with no primary inputs")
	}
	x := b.net.PIs[0]
	b.const1 = b.Nand2(x, b.Inv(x))
	return b.const1
}

func (b *builder) Const0() logic.NodeID { return b.Inv(b.Const1()) }

// leaf is one input of a decomposition tree with an optional position.
type leaf struct {
	id  logic.NodeID
	pos geom.Point
}

// tree reduces leaves to a single node with op, building a balanced binary
// tree over the given order.
func (b *builder) tree(leaves []leaf, op func(x, y logic.NodeID) logic.NodeID) logic.NodeID {
	switch len(leaves) {
	case 0:
		panic("decomp: empty tree")
	case 1:
		return leaves[0].id
	}
	mid := len(leaves) / 2
	l := b.tree(leaves[:mid], op)
	r := b.tree(leaves[mid:], op)
	return op(l, r)
}

// spatialOrder reorders leaves in place by recursive alternating median
// splits so spatially near leaves end up adjacent — and hence, after the
// balanced tree construction, topologically near (paper Fig 1.1).
func spatialOrder(leaves []leaf, splitX bool) {
	if len(leaves) <= 2 {
		return
	}
	if splitX {
		sort.SliceStable(leaves, func(i, j int) bool { return leaves[i].pos.X < leaves[j].pos.X })
	} else {
		sort.SliceStable(leaves, func(i, j int) bool { return leaves[i].pos.Y < leaves[j].pos.Y })
	}
	mid := len(leaves) / 2
	spatialOrder(leaves[:mid], !splitX)
	spatialOrder(leaves[mid:], !splitX)
}

func premap(src *logic.Network, pos map[logic.NodeID]geom.Point) (*Result, error) {
	b := newBuilder(src.Name)
	root := make(map[logic.NodeID]logic.NodeID)
	leafPos := make(map[logic.NodeID]geom.Point) // subject node -> position

	for _, pi := range src.PIs {
		nd := b.net.AddPI(src.Nodes[pi].Name)
		root[pi] = nd.ID
		if pos != nil {
			leafPos[nd.ID] = pos[pi]
		}
	}

	order, err := src.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		nd := src.Nodes[id]
		if nd.Kind != logic.KindLogic {
			continue
		}
		out, err := b.decomposeNode(src, nd, root, pos, leafPos)
		if err != nil {
			return nil, err
		}
		root[id] = out
		if pos != nil {
			leafPos[out] = pos[id]
		}
	}

	for i, po := range src.POs {
		b.net.MarkPO(root[po], src.PONames[i])
	}
	b.net.Sweep()
	// Dead source logic produces subject nodes that sweeping removes; drop
	// their stale root entries.
	//lint:sorted Node() is a pure read and per-key deletes commute
	for id, sub := range root {
		if b.net.Node(sub) == nil {
			delete(root, id)
		}
	}
	if err := b.net.Check(); err != nil {
		return nil, err
	}
	if err := CheckSubjectGraph(b.net); err != nil {
		return nil, err
	}
	return &Result{Inchoate: b.net, Root: root}, nil
}

func (b *builder) decomposeNode(src *logic.Network, nd *logic.Node,
	root map[logic.NodeID]logic.NodeID, pos map[logic.NodeID]geom.Point,
	leafPos map[logic.NodeID]geom.Point) (logic.NodeID, error) {

	cover := nd.Cover
	switch {
	case cover.IsConst0():
		return b.Const0(), nil
	case cover.IsConst1():
		return b.Const1(), nil
	}

	// Build each cube as an AND tree over its literals; the cube value used
	// by the OR stage. Literal leaves carry the position of their source
	// signal so spatial ordering can cluster them.
	cubeLeaves := make([]leaf, 0, len(cover.Cubes))
	for _, c := range cover.Cubes {
		lits := make([]leaf, 0, len(c))
		var centroid geom.Point
		for i, l := range c {
			if l == logic.LitDC {
				continue
			}
			fan := root[nd.Fanins[i]]
			v := fan
			if l == logic.LitNeg {
				v = b.Inv(fan)
			}
			p := leafPos[fan]
			lits = append(lits, leaf{id: v, pos: p})
			centroid = centroid.Add(p)
		}
		if len(lits) == 0 {
			// All-don't-care cube: constant 1 term dominates the cover.
			return b.Const1(), nil
		}
		if pos != nil {
			spatialOrder(lits, true)
		}
		cubeVal := b.tree(lits, b.And2)
		centroid = centroid.Scale(1 / float64(len(lits)))
		cubeLeaves = append(cubeLeaves, leaf{id: cubeVal, pos: centroid})
	}
	if pos != nil {
		spatialOrder(cubeLeaves, false)
	}
	return b.tree(cubeLeaves, b.Or2), nil
}

// WiresOnly reports whether premapping src leaves no logic node: every
// primary output folds into a primary input. It applies the builder's
// folds (Inv(Inv(x)) is x, Nand2(x, x) is Inv(x)) without building: a
// node folds only when all its literals stand for one input in one
// phase. A constant or any other node leaves logic behind.
func WiresOnly(src *logic.Network) bool {
	// A fold is the input a node premaps to, in its phase; pi is
	// InvalidNode where logic remains.
	type fold struct {
		pi  logic.NodeID
		neg bool
	}
	none := fold{pi: logic.InvalidNode}
	memo := make(map[logic.NodeID]fold)
	var eval func(id logic.NodeID) fold
	eval = func(id logic.NodeID) fold {
		nd := src.Nodes[id]
		if nd.Kind == logic.KindPI {
			return fold{pi: id}
		}
		if f, ok := memo[id]; ok {
			return f
		}
		memo[id] = none // also ends a cycle, which premap rejects
		out := none
		for _, c := range nd.Cover.Cubes {
			lits := 0
			for i, l := range c {
				if l != logic.LitDC {
					f := eval(nd.Fanins[i])
					f.neg = f.neg != (l == logic.LitNeg)
					if f.pi == logic.InvalidNode || (out != none && f != out) {
						return none
					}
					out, lits = f, lits+1
				}
			}
			if lits == 0 {
				return none // constant 1
			}
		}
		memo[id] = out
		return out
	}
	for _, po := range src.POs {
		if f := eval(po); f == none || f.neg {
			return false
		}
	}
	return true
}

// The reference covers IsNand2 and IsInv compare against, built once.
var (
	nand2Cover = logic.NandSOP(2)
	invCover   = logic.NotSOP()
)

// IsNand2 reports whether the node computes a 2-input NAND.
func IsNand2(n *logic.Network, id logic.NodeID) bool {
	nd := n.Node(id)
	return nd != nil && nd.Kind == logic.KindLogic && len(nd.Fanins) == 2 &&
		logic.EqualFunc(nd.Cover, nand2Cover)
}

// IsInv reports whether the node computes an inverter.
func IsInv(n *logic.Network, id logic.NodeID) bool {
	nd := n.Node(id)
	return nd != nil && nd.Kind == logic.KindLogic && len(nd.Fanins) == 1 &&
		logic.EqualFunc(nd.Cover, invCover)
}

// CheckSubjectGraph verifies that every logic node of n is a NAND2 or INV.
func CheckSubjectGraph(n *logic.Network) error {
	for _, nd := range n.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		if !IsNand2(n, nd.ID) && !IsInv(n, nd.ID) {
			return fmt.Errorf("decomp: node %q is not a base function (fanin %d)",
				nd.Name, len(nd.Fanins))
		}
	}
	return nil
}

package logic

import (
	"fmt"
	mathbits "math/bits"
)

// DFSScratch is reusable state for ReverseDFS: a visit stamp per node
// (node v is visited iff stamp[v] == epoch, so starting a walk costs no
// clear), the DFS stack and the output order. The zero value is ready.
type DFSScratch struct {
	stamp []uint32
	epoch uint32
	stack []dfsFrame
	order []NodeID
}

type dfsFrame struct {
	id  NodeID
	idx int
}

// ReverseDFS returns the nodes of the cone rooted at root in reverse
// depth-first-search order: every node appears after all of its fanins.
// PIs are included. This is the processing order used by the dynamic
// programming cover (paper §2: "we start from the primary inputs of the
// logic cone and recursively process nodes in a reversed depth first search
// order toward the primary output").
//
// With a non-nil scratch the walk reuses its arrays and the result
// aliases scratch: it is valid until the scratch's next walk. A nil
// scratch walks with fresh arrays.
func (n *Network) ReverseDFS(root NodeID, s *DFSScratch) []NodeID {
	if s == nil {
		s = &DFSScratch{}
	}
	if len(s.stamp) < len(n.Nodes) {
		s.stamp = make([]uint32, len(n.Nodes))
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: reset the stamps once per 2^32 walks
		clear(s.stamp)
		s.epoch = 1
	}
	order := s.order[:0]
	stack := append(s.stack[:0], dfsFrame{root, 0})
	s.stamp[root] = s.epoch
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		nd := n.Nodes[f.id]
		if f.idx < len(nd.Fanins) {
			child := nd.Fanins[f.idx]
			f.idx++
			if s.stamp[child] != s.epoch {
				s.stamp[child] = s.epoch
				stack = append(stack, dfsFrame{child, 0})
			}
			continue
		}
		order = append(order, f.id)
		stack = stack[:len(stack)-1]
	}
	s.order, s.stack = order, stack
	return order
}

// Levels returns, for every live node, its logic depth: PIs are level 0 and
// each logic node is 1 + max(fanin levels).
func (n *Network) Levels() map[NodeID]int {
	order, err := n.TopoOrder()
	if err != nil {
		panic(err) // Levels is only called on checked networks.
	}
	lv := make(map[NodeID]int, len(order))
	for _, id := range order {
		nd := n.Nodes[id]
		if nd.Kind == KindPI {
			lv[id] = 0
			continue
		}
		max := 0
		for _, f := range nd.Fanins {
			if lv[f]+1 > max {
				max = lv[f] + 1
			}
		}
		lv[id] = max
	}
	return lv
}

// Depth returns the maximum logic level over all POs.
func (n *Network) Depth() int {
	lv := n.Levels()
	max := 0
	for _, po := range n.POs {
		if lv[po] > max {
			max = lv[po]
		}
	}
	return max
}

// Sweep removes nodes that are not in the transitive fanin of any primary
// output, and collapses single-input identity (buffer) nodes that are not
// POs by rewiring their fanouts. It returns the number of nodes removed.
func (n *Network) Sweep() int {
	removed := 0
	// Collapse buffers (single-fanin, positive-unate identity covers).
	for _, nd := range n.Nodes {
		if nd == nil || nd.Kind != KindLogic || len(nd.Fanins) != 1 || n.IsPO(nd.ID) {
			continue
		}
		if !EqualFunc(nd.Cover, BufSOP()) {
			continue
		}
		src := nd.Fanins[0]
		for _, fo := range append([]NodeID(nil), nd.fanouts...) {
			n.ReplaceFanin(fo, nd.ID, src)
		}
	}
	// Mark reachable from POs: one DFS seeded with every PO.
	live := make([]bool, len(n.Nodes))
	stack := make([]NodeID, 0, len(n.POs))
	for _, po := range n.POs {
		if !live[po] {
			live[po] = true
			stack = append(stack, po)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range n.Nodes[id].Fanins {
			if !live[f] {
				live[f] = true
				stack = append(stack, f)
			}
		}
	}
	// Delete dead logic nodes in reverse topological order so fanout lists
	// drain naturally.
	order, err := n.TopoOrder()
	if err != nil {
		panic(err)
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		nd := n.Node(id)
		if nd == nil || nd.Kind != KindLogic || live[id] {
			continue
		}
		if len(nd.fanouts) == 0 {
			n.Delete(id)
			removed++
		}
	}
	return removed
}

// ExitLines counts, for each ordered pair of PO cones (i, j), the number of
// "exit lines" from cone i into cone j: edges from a node inside cone i to
// a node inside cone j but outside cone i (paper §3.5). The result is the
// matrix M with M[i][j] = E(K_i, K_j); diagonal entries are zero.
// The cone-membership sets are computed as per-node bitsets (bit i of
// inCone[v] ⇔ v ∈ K_i) by one reverse-topological sweep — v is in cone i
// iff it is PO i or one of its fanouts is — and each edge u→fo then
// contributes M[i][j]++ for every i with u∈K_i, fo∉K_i and every j with
// fo∈K_j (j=i is excluded automatically since fo∉K_i). This replaces k
// hash-set cone traversals and a per-edge k-scan with word-parallel
// bit operations.
func (n *Network) ExitLines() [][]int {
	k := len(n.POs)
	m := make([][]int, k)
	for i := range m {
		m[i] = make([]int, k)
	}
	if k == 0 {
		return m
	}
	order, err := n.TopoOrder()
	if err != nil {
		panic(err) // ExitLines is only called on checked networks.
	}
	words := (k + 63) / 64
	inCone := make([]uint64, len(n.Nodes)*words)
	coneBits := func(id NodeID) []uint64 {
		return inCone[int(id)*words : (int(id)+1)*words]
	}
	for i, po := range n.POs {
		coneBits(po)[i/64] |= 1 << (i % 64)
	}
	// Reverse topological order: every node's fanouts are already final.
	for idx := len(order) - 1; idx >= 0; idx-- {
		b := coneBits(order[idx])
		for _, fo := range n.Nodes[order[idx]].fanouts {
			fb := coneBits(fo)
			for w := range b {
				b[w] |= fb[w]
			}
		}
	}
	for _, id := range order {
		ub := coneBits(id)
		for _, fo := range n.Nodes[id].fanouts {
			fb := coneBits(fo)
			for w, uw := range ub {
				iw := uw &^ fb[w] // cones containing id but exited by this edge
				for iw != 0 {
					row := m[w*64+mathbits.TrailingZeros64(iw)]
					iw &= iw - 1
					for w2, jw := range fb {
						for jw != 0 {
							row[w2*64+mathbits.TrailingZeros64(jw)]++
							jw &= jw - 1
						}
					}
				}
			}
		}
	}
	return m
}

// Stats summarizes a network for reporting.
type Stats struct {
	PIs, POs, Logic int
	Literals        int
	Depth           int
	MaxFanin        int
	MaxFanout       int
}

// Stat computes summary statistics for the network.
func (n *Network) Stat() Stats {
	var s Stats
	s.PIs = len(n.PIs)
	s.POs = len(n.POs)
	for _, nd := range n.Nodes {
		if nd == nil {
			continue
		}
		if nd.Kind == KindLogic {
			s.Logic++
			s.Literals += nd.Cover.LiteralCount()
			if len(nd.Fanins) > s.MaxFanin {
				s.MaxFanin = len(nd.Fanins)
			}
		}
		if fc := n.FanoutCount(nd.ID); fc > s.MaxFanout {
			s.MaxFanout = fc
		}
	}
	s.Depth = n.Depth()
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("pi=%d po=%d nodes=%d lits=%d depth=%d maxfi=%d maxfo=%d",
		s.PIs, s.POs, s.Logic, s.Literals, s.Depth, s.MaxFanin, s.MaxFanout)
}

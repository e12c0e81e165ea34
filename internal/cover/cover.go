// Package cover turns a match assignment (the outcome of dynamic
// programming in packages mis and core) into a mapped netlist. Starting
// from the primary outputs it walks the "needed" subject nodes — the hawks
// of the paper's terminology — instantiating one library gate per needed
// node and wiring gate pins to the signals of the bound match inputs.
// Subject nodes merged inside matches (doves) produce no gates; a merged
// node that is nevertheless needed elsewhere is instantiated too, which is
// exactly the logic duplication DAG covering admits.
package cover

import (
	"fmt"

	"lily/internal/geom"
	"lily/internal/logic"
	"lily/internal/match"
	"lily/internal/netlist"
)

// BuildNetlist constructs the mapped netlist for a subject graph given a
// best-match oracle. It returns the netlist and the driver reference of
// every needed subject node. Positions are left zero; the layout backend
// assigns them.
func BuildNetlist(sub *logic.Network, best func(logic.NodeID) *match.Match, name string) (*netlist.Netlist, map[logic.NodeID]netlist.Ref, error) {
	nl := &netlist.Netlist{Name: name}
	piIndex := make(map[logic.NodeID]int, len(sub.PIs))
	for _, pi := range sub.PIs {
		piIndex[pi] = len(nl.PINames)
		nl.PINames = append(nl.PINames, sub.Nodes[pi].Name)
	}
	nl.PIPos = make([]geom.Point, len(nl.PINames))

	refs := make(map[logic.NodeID]netlist.Ref)
	var build func(v logic.NodeID) (netlist.Ref, error)
	build = func(v logic.NodeID) (netlist.Ref, error) {
		if r, ok := refs[v]; ok {
			return r, nil
		}
		nd := sub.Node(v)
		if nd == nil {
			return netlist.Ref{}, fmt.Errorf("cover: needed node %d is deleted", v)
		}
		if nd.Kind == logic.KindPI {
			r := netlist.Ref{IsPI: true, Index: piIndex[v]}
			refs[v] = r
			return r, nil
		}
		m := best(v)
		if m == nil {
			return netlist.Ref{}, fmt.Errorf("cover: no match chosen at node %q", nd.Name)
		}
		if m.Root() != v {
			return netlist.Ref{}, fmt.Errorf("cover: match at %q roots at %d", nd.Name, m.Root())
		}
		// Reserve the cell slot before recursing (the subject is a DAG, so
		// recursion cannot revisit v, but the slot keeps cell order stable).
		ci := nl.AddCell(&netlist.Cell{Name: nd.Name, Gate: m.Gate,
			Inputs: make([]netlist.Ref, len(m.Inputs()))})
		r := netlist.Ref{Index: ci}
		refs[v] = r
		for pin, in := range m.Inputs() {
			ir, err := build(in)
			if err != nil {
				return netlist.Ref{}, err
			}
			nl.Cells[ci].Inputs[pin] = ir
		}
		return r, nil
	}

	for i, po := range sub.POs {
		r, err := build(po)
		if err != nil {
			return nil, nil, err
		}
		nl.POs = append(nl.POs, netlist.PO{Name: sub.PONames[i], Driver: r})
	}
	if err := nl.Check(); err != nil {
		return nil, nil, err
	}
	return nl, refs, nil
}

// NeededSet returns the subject nodes that appear as gates in the final
// netlist (hawks): the PO drivers and, transitively, the match inputs of
// every needed node. A node for which known reports true is neither
// returned nor expanded: the caller holds it, and its needed inputs,
// already. known may be nil.
func NeededSet(sub *logic.Network, best func(logic.NodeID) *match.Match, roots []logic.NodeID, known func(logic.NodeID) bool) (map[logic.NodeID]bool, error) {
	needed := make(map[logic.NodeID]bool)
	stack := append([]logic.NodeID(nil), roots...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if needed[v] || known != nil && known(v) {
			continue
		}
		nd := sub.Node(v)
		if nd == nil {
			return nil, fmt.Errorf("cover: needed node %d deleted", v)
		}
		if nd.Kind == logic.KindPI {
			continue
		}
		needed[v] = true
		m := best(v)
		if m == nil {
			return nil, fmt.Errorf("cover: no match at node %q", nd.Name)
		}
		for _, in := range m.Inputs() {
			stack = append(stack, in)
		}
	}
	return needed, nil
}

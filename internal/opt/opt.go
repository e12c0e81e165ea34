// Package opt implements the technology-independent optimization phase the
// paper's pipeline consumes ("Given a Boolean network representing a
// combinational logic circuit optimized by technology independent synthesis
// procedures", §1): MIS-style algebraic transformations that reduce the
// factored-form literal count before premapping. The passes are classic
// MIS operations — constant propagation, two-level cover simplification,
// greedy common-cube extraction, and elimination of low-value nodes — each
// preserving network function (verified by the package tests by exhaustive
// or randomized simulation).
package opt

import (
	"fmt"

	"lily/internal/logic"
)

const (
	// maxIterations bounds the outer simplify/extract loop.
	maxIterations = 4
	// eliminateThreshold collapses nodes whose elimination "value"
	// (extra literals introduced minus literals saved) is at most this.
	eliminateThreshold = 0
	// extractMinSaving requires a common cube to save at least this many
	// literals before it is extracted.
	extractMinSaving = 2
)

// Stats reports what the pipeline changed.
type Stats struct {
	LiteralsBefore int
	LiteralsAfter  int
	NodesBefore    int
	NodesAfter     int
	CubesMerged    int
	CubesDropped   int
	ConstantsFound int
	CubesExtracted int
	NodesCollapsed int
}

func (s Stats) String() string {
	return fmt.Sprintf("lits %d->%d nodes %d->%d (merged=%d dropped=%d const=%d extracted=%d collapsed=%d)",
		s.LiteralsBefore, s.LiteralsAfter, s.NodesBefore, s.NodesAfter,
		s.CubesMerged, s.CubesDropped, s.ConstantsFound, s.CubesExtracted, s.NodesCollapsed)
}

// Optimize runs the pipeline in place and returns statistics.
func Optimize(net *logic.Network) (Stats, error) {
	var st Stats
	st.LiteralsBefore = totalLiterals(net)
	st.NodesBefore = net.NumLogic()
	for iter := 0; iter < maxIterations; iter++ {
		changed := 0
		changed += propagateConstants(net, &st)
		changed += simplifyCovers(net, &st)
		changed += extractCommonCubes(net, extractMinSaving, &st)
		changed += eliminate(net, eliminateThreshold, &st)
		net.Sweep()
		if changed == 0 {
			break
		}
	}
	if err := net.Check(); err != nil {
		return st, fmt.Errorf("opt: broke the network: %w", err)
	}
	st.LiteralsAfter = totalLiterals(net)
	st.NodesAfter = net.NumLogic()
	return st, nil
}

func totalLiterals(net *logic.Network) int {
	total := 0
	for _, nd := range net.Nodes {
		if nd != nil && nd.Kind == logic.KindLogic {
			total += nd.Cover.LiteralCount()
		}
	}
	return total
}

// propagateConstants finds structurally constant nodes and cofactors them
// into their fanouts.
func propagateConstants(net *logic.Network, st *Stats) int {
	changed := 0
	order, err := net.TopoOrder()
	if err != nil {
		return 0
	}
	constVal := make(map[logic.NodeID]bool)
	for _, id := range order {
		nd := net.Node(id)
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		// Substitute known-constant fanins first.
		for i := len(nd.Fanins) - 1; i >= 0; i-- {
			if v, ok := constVal[nd.Fanins[i]]; ok {
				cofactorFanin(net, nd, i, v)
				changed++
			}
		}
		switch {
		case nd.Cover.IsConst0():
			dropAllFanins(net, nd)
			nd.Cover = logic.ConstSOP(false)
			constVal[id] = false
			st.ConstantsFound++
		case nd.Cover.IsConst1():
			dropAllFanins(net, nd)
			nd.Cover = logic.ConstSOP(true)
			constVal[id] = true
			st.ConstantsFound++
		}
	}
	return changed
}

// cofactorFanin fixes fanin position i of nd to value v and removes the
// fanin.
func cofactorFanin(net *logic.Network, nd *logic.Node, i int, v bool) {
	old := nd.Cover
	out := logic.NewSOP(old.NumInputs - 1)
	for _, c := range old.Cubes {
		keep := true
		switch c[i] {
		case logic.LitPos:
			keep = v
		case logic.LitNeg:
			keep = !v
		}
		if !keep {
			continue
		}
		nc := make(logic.Cube, 0, len(c)-1)
		nc = append(nc, c[:i]...)
		nc = append(nc, c[i+1:]...)
		out.AddCube(nc)
	}
	net.RemoveFanin(nd.ID, i)
	nd.Cover = out
}

func dropAllFanins(net *logic.Network, nd *logic.Node) {
	for i := len(nd.Fanins) - 1; i >= 0; i-- {
		net.RemoveFanin(nd.ID, i)
	}
	nd.Cover = logic.SOP{NumInputs: 0, Cubes: nil} // caller sets the constant
}

// simplifyCovers removes contained cubes and merges distance-1 cube pairs
// (a lightweight espresso step), then drops unused fanins.
func simplifyCovers(net *logic.Network, st *Stats) int {
	changed := 0
	for _, nd := range net.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic || len(nd.Fanins) == 0 {
			continue
		}
		before := nd.Cover.LiteralCount()
		cover := nd.Cover
		cover = dropContainedCubes(cover, st)
		cover = mergeDistanceOne(cover, st)
		cover = dropContainedCubes(cover, st)
		nd.Cover = cover
		pruneUnusedFanins(net, nd)
		if nd.Cover.LiteralCount() < before {
			changed++
		}
	}
	return changed
}

// covers reports whether cube a covers cube b (a's literals are a subset).
func cubeCovers(a, b logic.Cube) bool {
	for i := range a {
		if a[i] != logic.LitDC && a[i] != b[i] {
			return false
		}
	}
	return true
}

func dropContainedCubes(s logic.SOP, st *Stats) logic.SOP {
	out := logic.NewSOP(s.NumInputs)
	for i, c := range s.Cubes {
		contained := false
		for j, d := range s.Cubes {
			if i == j {
				continue
			}
			if cubeCovers(d, c) && !(cubeCovers(c, d) && j > i) {
				contained = true
				break
			}
		}
		if contained {
			st.CubesDropped++
			continue
		}
		out.AddCube(append(logic.Cube(nil), c...))
	}
	return out
}

// mergeDistanceOne combines cube pairs differing only in the phase of one
// literal: x·a + x̄·a = a.
func mergeDistanceOne(s logic.SOP, st *Stats) logic.SOP {
	cubes := make([]logic.Cube, len(s.Cubes))
	for i, c := range s.Cubes {
		cubes[i] = append(logic.Cube(nil), c...)
	}
	merged := true
	for merged {
		merged = false
	outer:
		for i := 0; i < len(cubes); i++ {
			for j := i + 1; j < len(cubes); j++ {
				if pos, ok := distanceOne(cubes[i], cubes[j]); ok {
					cubes[i][pos] = logic.LitDC
					cubes = append(cubes[:j], cubes[j+1:]...)
					st.CubesMerged++
					merged = true
					break outer
				}
			}
		}
	}
	out := logic.NewSOP(s.NumInputs)
	for _, c := range cubes {
		out.AddCube(c)
	}
	return out
}

// distanceOne reports whether two cubes agree everywhere except one
// position where they hold opposite phases.
func distanceOne(a, b logic.Cube) (int, bool) {
	pos := -1
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		opposite := (a[i] == logic.LitPos && b[i] == logic.LitNeg) ||
			(a[i] == logic.LitNeg && b[i] == logic.LitPos)
		if !opposite || pos >= 0 {
			return -1, false
		}
		pos = i
	}
	return pos, pos >= 0
}

// pruneUnusedFanins removes fanins no cube references.
func pruneUnusedFanins(net *logic.Network, nd *logic.Node) {
	for i := len(nd.Fanins) - 1; i >= 0; i-- {
		if !nd.Cover.DependsOn(i) {
			cofactorFanin(net, nd, i, true) // value irrelevant: no cube uses it
		}
	}
}

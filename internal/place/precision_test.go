package place

import (
	"math"
	"math/rand"
	"testing"

	"lily/internal/geom"
	"lily/internal/logic"
)

// scaleNet builds a synthetic n-node network shaped like the scale
// generators' subject graphs — a long chain with random reconvergent
// second fanins, so nets range from two pins to high fanout — placed at
// coordinates offset far from the origin. The offset is the precision
// stressor: at a 500k-cell die the coordinates reach ~1e4 µm, and an
// offset of 1e7 leaves the per-net widths computed as differences of
// large nearby float64 values, the worst case for cancellation the
// HPWL path can meet.
func scaleNet(n int, offset float64) (*logic.Network, *Result) {
	net := logic.New("scale")
	rng := rand.New(rand.NewSource(7))
	ids := make([]logic.NodeID, 0, n+1)
	ids = append(ids, net.AddPI("pi0").ID)
	for i := 0; i < n; i++ {
		prev := ids[len(ids)-1]
		var nd *logic.Node
		if len(ids) >= 2 && i%3 == 0 {
			other := ids[rng.Intn(len(ids)-1)]
			nd = net.AddLogic("", []logic.NodeID{prev, other}, logic.OrSOP(2))
		} else {
			nd = net.AddLogic("", []logic.NodeID{prev}, logic.AndSOP(1))
		}
		ids = append(ids, nd.ID)
	}
	last := ids[len(ids)-1]
	net.MarkPO(last, "po0")

	side := 2e4
	res := &Result{
		Pos:    make(map[logic.NodeID]geom.Point, len(ids)),
		POPads: map[string]geom.Point{"po0": {X: offset + side, Y: offset + side/2}},
		Die:    rectOf(offset, offset, offset+side, offset+side),
	}
	for _, id := range ids {
		res.Pos[id] = geom.Point{
			X: offset + rng.Float64()*side,
			Y: offset + rng.Float64()*side,
		}
	}
	return net, res
}

// TestHPWLPrecisionAtScale pins the numeric contract of TotalHPWL at
// frontier sizes: with hundreds of thousands of nets at coordinates far
// from the origin, the driver-order fold must stay within 1e-9 relative
// error of a Kahan-compensated reference.
func TestHPWLPrecisionAtScale(t *testing.T) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	net, res := scaleNet(n, 1e7)

	total := res.TotalHPWL(net)
	if math.IsNaN(total) || math.IsInf(total, 0) || total <= 0 {
		t.Fatalf("TotalHPWL = %v, want a positive finite value", total)
	}

	// Kahan-compensated reference over the same per-net lengths.
	sum, comp := 0.0, 0.0
	for _, nd := range net.Nodes {
		if nd == nil {
			continue
		}
		pts := []geom.Point{res.Pos[nd.ID]}
		seen := map[logic.NodeID]bool{}
		for _, fo := range net.Fanouts(nd.ID) {
			if !seen[fo] {
				seen[fo] = true
				pts = append(pts, res.Pos[fo])
			}
		}
		for i, po := range net.POs {
			if po == nd.ID {
				pts = append(pts, res.POPads[net.PONames[i]])
			}
		}
		if len(pts) < 2 {
			continue
		}
		v := geom.Enclosing(pts).HalfPerimeter() - comp
		s := sum + v
		comp = (s - sum) - v
		sum = s
	}
	if rel := math.Abs(total-sum) / sum; rel > 1e-9 {
		t.Errorf("TotalHPWL drifted %.3g relative from the compensated sum (%.6f vs %.6f)",
			rel, total, sum)
	}
}

// TestDensityImbalanceExtremeDie checks the grid-binning arithmetic at
// a die offset far from the origin: every bin index must stay in range
// (points exactly on the upper-right boundary clamp into the last bin
// rather than indexing out), and the imbalance ratio is finite and at
// least 1 — the maximum bin can never hold fewer cells than the mean.
func TestDensityImbalanceExtremeDie(t *testing.T) {
	net, res := scaleNet(5000, 1e7)
	// Force the boundary cases the bin clamp exists for.
	res.Pos[net.Nodes[1].ID] = res.Die.UR
	res.Pos[net.Nodes[2].ID] = res.Die.LL
	for _, g := range []int{1, 7, 16, 64} {
		r := res.DensityImbalance(net, g)
		if math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("g=%d: imbalance = %v", g, r)
		}
		if r < 1 {
			t.Errorf("g=%d: imbalance %v < 1; the max bin cannot be below the mean", g, r)
		}
	}
}

// TestCoarsenVCycleAtScale is the ≥50k-point clustering property test:
// the full coarsening ladder on a premapped 50k-gate generated circuit
// must keep every level a valid matching partition (clusters of one or
// two points), conserve total cell area level to level, never grow the
// pin count, and bottom out by actually shrinking — each accepted level
// reduces the point count by at least 5%.
func TestCoarsenVCycleAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-point coarsening ladder skipped under -short")
	}
	prob := mlProblemFor(t, "gen50k")
	if prob.n < 50000 {
		t.Fatalf("gen50k premapped to %d movable points, want >= 50000", prob.n)
	}
	wantArea := 0.0
	for _, a := range prob.areas {
		wantArea += a
	}
	levels := 0
	for prob.n > 1000 {
		parent, coarse, ok := coarsenOnce(prob)
		if !ok {
			break
		}
		levels++
		sizes := make([]int, coarse.n)
		for i, ci := range parent {
			if ci < 0 || int(ci) >= coarse.n {
				t.Fatalf("level %d: point %d mapped to cluster %d outside [0,%d)",
					levels, i, ci, coarse.n)
			}
			sizes[ci]++
		}
		for ci, sz := range sizes {
			if sz < 1 || sz > 2 {
				t.Fatalf("level %d: cluster %d holds %d points; matching allows 1 or 2",
					levels, ci, sz)
			}
		}
		if coarse.n > prob.n*19/20 {
			t.Fatalf("level %d: %d -> %d points, reduction below 5%%", levels, prob.n, coarse.n)
		}
		gotArea := 0.0
		for _, a := range coarse.areas {
			gotArea += a
		}
		if math.Abs(gotArea-wantArea) > 1e-6*wantArea {
			t.Fatalf("level %d: total area %.6f, want %.6f (conservation)", levels, gotArea, wantArea)
		}
		finePins, coarsePins := 0, 0
		for _, nd := range prob.nets {
			finePins += len(nd.pins)
		}
		for _, nd := range coarse.nets {
			coarsePins += len(nd.pins)
		}
		if coarsePins > finePins {
			t.Fatalf("level %d: pin count grew %d -> %d", levels, finePins, coarsePins)
		}
		prob = coarse
	}
	if levels < 4 {
		t.Fatalf("only %d coarsening levels on a 50k-point problem; ladder stopped early", levels)
	}
	t.Logf("coarsened through %d levels down to %d points", levels, prob.n)
}

// TestDotBlockFold pins dot's float order: above one dotBlock the sum is
// the per-block partial sums folded in block order, bit for bit. The CG
// trajectory, and through it every golden placement, depends on it.
func TestDotBlockFold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 3*dotBlock + 517
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64() * 1e4
		b[i] = rng.NormFloat64()
	}
	want := 0.0
	for lo := 0; lo < n; lo += dotBlock {
		s := 0.0
		for i := lo; i < lo+dotBlock && i < n; i++ {
			s += a[i] * b[i]
		}
		want += s
	}
	if got := dot(a, b); got != want {
		t.Fatalf("dot = %v, block fold = %v (must be bit-identical)", got, want)
	}
}

package place

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/geom"
	"lily/internal/logic"
)

func TestCGSolvesSmallSystem(t *testing.T) {
	// Chain of 3 movable vertices between two fixed points at x=0 and x=4:
	// equilibrium is x = 1, 2, 3.
	q := newQuadSystem(3, []netDef{
		twoPin(cellPin(0), cellPin(1)),
		twoPin(cellPin(1), cellPin(2)),
		twoPin(cellPin(0), padPin(0, 0)),
		twoPin(padPin(4, 0), cellPin(2)),
	})
	q.load(nil, 0)
	x := make([]float64, 3)
	if _, err := q.solve(context.Background(), q.rhsX, x, 1e-10, 100); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestCGSingularDetected(t *testing.T) {
	q := newQuadSystem(2, []netDef{twoPin(cellPin(0), cellPin(1))}) // no fixed anchor: singular Laplacian
	q.load(nil, 0)
	q.rhsX[0] = 1 // inconsistent right-hand side
	q.rhsX[1] = 1
	x := make([]float64, 2)
	if _, err := q.solve(context.Background(), q.rhsX, x, 1e-10, 100); err == nil {
		t.Error("singular system not detected")
	}
	// An isolated vertex (zero diagonal) must also be rejected.
	q2 := newQuadSystem(1, nil)
	q2.load(nil, 0)
	if _, err := q2.solve(context.Background(), q2.rhsX, make([]float64, 1), 1e-10, 10); err == nil {
		t.Error("zero-diagonal system not detected")
	}
}

// cellPin, padPin and twoPin build hand-made nets; a two-pin net
// couples its pins with unit weight.
func cellPin(i int) netPin { return netPin{cell: i} }

func padPin(x, y float64) netPin {
	return netPin{cell: -1, pad: &pad{pos: geom.Point{X: x, Y: y}}}
}

func twoPin(a, b netPin) netDef { return netDef{pins: []netPin{a, b}} }

func TestFMReducesCut(t *testing.T) {
	// Two 4-cliques joined by a single net; a bad initial partition mixes
	// them. FM must recover the natural split with cut 1.
	h := &Hypergraph{Areas: []float64{1, 1, 1, 1, 1, 1, 1, 1}}
	clique := func(cells []int) {
		for i := 0; i < len(cells); i++ {
			for j := i + 1; j < len(cells); j++ {
				h.Nets = append(h.Nets, []int{cells[i], cells[j]})
			}
		}
	}
	clique([]int{0, 1, 2, 3})
	clique([]int{4, 5, 6, 7})
	h.Nets = append(h.Nets, []int{3, 4})
	part := []int{0, 1, 0, 1, 0, 1, 0, 1} // alternating: terrible
	before := h.CutSize(part)
	after := FM(h, part, 0.1, 5)
	if after >= before {
		t.Errorf("FM did not improve: %d -> %d", before, after)
	}
	if after != 1 {
		t.Errorf("FM cut = %d, want 1 (part %v)", after, part)
	}
	// Balance: 4/4.
	n0 := 0
	for _, s := range part {
		if s == 0 {
			n0++
		}
	}
	if n0 != 4 {
		t.Errorf("FM imbalanced: %d vs %d", n0, 8-n0)
	}
}

// TestFMAllocsFlat: FM's allocations do not grow with the cell count.
// Each cell's net list is a range of one flat array, so a 16x larger
// hypergraph costs the same number of allocations.
func TestFMAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	allocs := func(n int) float64 {
		h := &Hypergraph{Areas: make([]float64, n)}
		for c := range h.Areas {
			h.Areas[c] = 1
			h.Nets = append(h.Nets, []int{c, (c + 1) % n}, []int{c, (c * 7) % n, (c + n/2) % n})
		}
		seed := make([]int, n)
		for c := range seed {
			seed[c] = c % 2
		}
		part := make([]int, n)
		return testing.AllocsPerRun(3, func() {
			copy(part, seed)
			FM(h, part, 0.1, 2)
		})
	}
	small, large := allocs(64), allocs(1024)
	if large != small {
		t.Fatalf("FM allocations grow with cells: %v at 64 cells, %v at 1024", small, large)
	}
}

func TestFMRespectsBalance(t *testing.T) {
	// A star: all nets touch cell 0. Cut is minimized by putting everything
	// on one side, but balance must forbid it.
	h := &Hypergraph{Areas: []float64{1, 1, 1, 1, 1, 1}}
	for i := 1; i < 6; i++ {
		h.Nets = append(h.Nets, []int{0, i})
	}
	part := []int{0, 0, 0, 1, 1, 1}
	FM(h, part, 0.1, 5)
	n0 := 0
	for _, s := range part {
		if s == 0 {
			n0++
		}
	}
	if n0 < 2 || n0 > 4 {
		t.Errorf("balance violated: %d vs %d", n0, 6-n0)
	}
}

func placeBenchmark(t *testing.T, name string) (*logic.Network, *Result) {
	t.Helper()
	p, ok := bench.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	src := bench.Generate(p)
	res, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Inchoate
	pr, err := Global(sub, func(logic.NodeID) float64 { return 24 }, 60, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sub, pr
}

func TestGlobalPlacementBasics(t *testing.T) {
	sub, pr := placeBenchmark(t, "C432")
	// Every live node has a position inside the die.
	for _, nd := range sub.Nodes {
		if nd == nil {
			continue
		}
		pt, ok := pr.Pos[nd.ID]
		if !ok {
			t.Fatalf("node %s unplaced", nd.Name)
		}
		if !pr.Die.Contains(pt) {
			t.Errorf("node %s at %v outside die %v", nd.Name, pt, pr.Die)
		}
	}
	// PO pads exist and sit on the boundary.
	if len(pr.POPads) != len(sub.POs) {
		t.Errorf("%d PO pads for %d POs", len(pr.POPads), len(sub.POs))
	}
	for name, pt := range pr.POPads {
		if !onBoundary(pt, pr.Die) {
			t.Errorf("PO pad %s at %v not on boundary", name, pt)
		}
	}
	for _, pi := range sub.PIs {
		if !onBoundary(pr.Pos[pi], pr.Die) {
			t.Errorf("PI pad %s not on boundary", sub.Nodes[pi].Name)
		}
	}
}

func onBoundary(p geom.Point, die geom.Rect) bool {
	const eps = 1e-6
	return math.Abs(p.X-die.LL.X) < eps || math.Abs(p.X-die.UR.X) < eps ||
		math.Abs(p.Y-die.LL.Y) < eps || math.Abs(p.Y-die.UR.Y) < eps
}

func TestGlobalPlacementBalanced(t *testing.T) {
	_, pr := placeBenchmark(t, "C880")
	sub, _ := placeBenchmark(t, "C880")
	_ = sub
	imb := pr.DensityImbalance(sub, 4)
	if imb > 3.5 {
		t.Errorf("density imbalance %.2f too high; placement not balanced", imb)
	}
}

func TestGlobalPlacementBeatsRandom(t *testing.T) {
	sub, pr := placeBenchmark(t, "C432")
	placed := pr.TotalHPWL(sub)
	// Random placement baseline with the same die and pads.
	rng := rand.New(rand.NewSource(1))
	rnd := &Result{Pos: make(map[logic.NodeID]geom.Point), POPads: pr.POPads, Die: pr.Die}
	for _, nd := range sub.Nodes {
		if nd == nil {
			continue
		}
		if nd.Kind == logic.KindPI {
			rnd.Pos[nd.ID] = pr.Pos[nd.ID]
			continue
		}
		rnd.Pos[nd.ID] = geom.Point{
			X: pr.Die.LL.X + rng.Float64()*pr.Die.Width(),
			Y: pr.Die.LL.Y + rng.Float64()*pr.Die.Height(),
		}
	}
	random := rnd.TotalHPWL(sub)
	if placed >= random*0.7 {
		t.Errorf("global placement HPWL %.0f not clearly better than random %.0f", placed, random)
	}
}

func TestGlobalPlacementDeterministic(t *testing.T) {
	sub1, pr1 := placeBenchmark(t, "misex1")
	sub2, pr2 := placeBenchmark(t, "misex1")
	if pr1.Die != pr2.Die {
		t.Fatal("die differs")
	}
	for _, nd := range sub1.Nodes {
		if nd == nil {
			continue
		}
		id2 := sub2.NodeByName(nd.Name).ID
		a, b := pr1.Pos[nd.ID], pr2.Pos[id2]
		if math.Abs(a.X-b.X) > 1e-9 || math.Abs(a.Y-b.Y) > 1e-9 {
			t.Fatalf("node %s at %v vs %v", nd.Name, a, b)
		}
	}
}

func TestRegionsCoverAndBound(t *testing.T) {
	sub, pr := placeBenchmark(t, "misex1")
	for _, nd := range sub.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		r, ok := pr.Regions[nd.ID]
		if !ok || r.IsEmpty() {
			t.Fatalf("node %s has no region", nd.Name)
		}
		if !r.Contains(pr.Pos[nd.ID]) {
			t.Errorf("node %s at %v outside its region %v", nd.Name, pr.Pos[nd.ID], r)
		}
	}
}

func TestPerimeterPoint(t *testing.T) {
	die := rectOf(0, 0, 10, 10)
	cases := []struct {
		d    float64
		want geom.Point
	}{
		{0, geom.Point{X: 0, Y: 0}},
		{5, geom.Point{X: 5, Y: 0}},
		{10, geom.Point{X: 10, Y: 0}},
		{15, geom.Point{X: 10, Y: 5}},
		{25, geom.Point{X: 5, Y: 10}},
		{35, geom.Point{X: 0, Y: 5}},
		{40, geom.Point{X: 0, Y: 0}}, // wraps
	}
	for _, tc := range cases {
		got := perimeterPoint(die, tc.d)
		if got != tc.want {
			t.Errorf("perimeterPoint(%v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

func TestGlobalRejectsEmptyNetwork(t *testing.T) {
	n := logic.New("empty")
	n.AddPI("a")
	if _, err := Global(n, func(logic.NodeID) float64 { return 1 }, 1, DefaultConfig()); err == nil {
		t.Error("expected error for network with no logic")
	}
}

func TestNaivePadsUsuallyWorse(t *testing.T) {
	// Connectivity-driven pad assignment should not lose to the uniform
	// spread on placed wirelength.
	p, _ := bench.ProfileByName("C432")
	src := bench.Generate(p)
	res, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Inchoate
	w := func(logic.NodeID) float64 { return 24.0 }
	smart, err := Global(sub, w, 60, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NaivePads = true
	naive, err := Global(sub, w, 60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if smart.TotalHPWL(sub) > naive.TotalHPWL(sub)*1.05 {
		t.Errorf("connectivity pads (%.0f) clearly worse than naive (%.0f)",
			smart.TotalHPWL(sub), naive.TotalHPWL(sub))
	}
}

func TestFixedPadsPinned(t *testing.T) {
	p, _ := bench.ProfileByName("misex1")
	src := bench.Generate(p)
	res, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Inchoate
	w := func(logic.NodeID) float64 { return 24.0 }
	first, err := Global(sub, w, 60, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Die = first.Die
	cfg.FixedPads = make(map[string]geom.Point)
	for _, pi := range sub.PIs {
		cfg.FixedPads[sub.Nodes[pi].Name] = first.Pos[pi]
	}
	for name, pos := range first.POPads {
		cfg.FixedPads[name] = pos
	}
	second, err := Global(sub, w, 60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Die != first.Die {
		t.Error("fixed die not honored")
	}
	for _, pi := range sub.PIs {
		if second.Pos[pi] != first.Pos[pi] {
			t.Errorf("pinned PI pad %s moved", sub.Nodes[pi].Name)
		}
	}
	for name := range first.POPads {
		if second.POPads[name] != first.POPads[name] {
			t.Errorf("pinned PO pad %s moved", name)
		}
	}
}

package place

import (
	"math"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/logic"
)

// mlProblemFor mirrors GlobalContext's problem construction (pads spread
// on the boundary, nets with movable-index pins) for a premapped
// benchmark circuit, so the coarsening internals can be tested directly.
func mlProblemFor(t *testing.T, name string) mlProblem {
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
	var movable []logic.NodeID
	var areas []float64
	for _, nd := range sub.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		movable = append(movable, nd.ID)
		areas = append(areas, 24*60)
	}
	idxArr := make([]int32, len(sub.Nodes))
	for i := range idxArr {
		idxArr[i] = -1
	}
	for mi, id := range movable {
		idxArr[id] = int32(mi)
	}
	die := rectOf(0, 0, 1000, 1000)
	var pads []*pad
	for _, pi := range sub.PIs {
		pads = append(pads, &pad{name: sub.Nodes[pi].Name, isPI: true, node: pi})
	}
	for i, po := range sub.POs {
		pads = append(pads, &pad{name: sub.PONames[i], node: po})
	}
	spreadPads(pads, die)
	return mlProblem{n: len(movable), areas: areas, nets: buildNets(sub, pads, idxArr)}
}

// TestCoarsenIsPartition: heavy-edge matching must produce a partition —
// every fine point lands in exactly one cluster, clusters hold one or two
// points, and merged clusters respect the 4x-mean area bound.
func TestCoarsenIsPartition(t *testing.T) {
	prob := mlProblemFor(t, "C880")
	parent, coarse, ok := coarsenOnce(prob)
	if !ok {
		t.Fatal("coarsening failed to shrink C880")
	}
	if len(parent) != prob.n {
		t.Fatalf("parent len %d, want %d", len(parent), prob.n)
	}
	sizes := make([]int, coarse.n)
	for i, ci := range parent {
		if ci < 0 || int(ci) >= coarse.n {
			t.Fatalf("point %d mapped to cluster %d outside [0,%d)", i, ci, coarse.n)
		}
		sizes[ci]++
	}
	total := 0.0
	for _, a := range prob.areas {
		total += a
	}
	maxArea := 4 * total / float64(prob.n)
	carea := make([]float64, coarse.n)
	for i, ci := range parent {
		carea[ci] += prob.areas[i]
	}
	for ci, sz := range sizes {
		if sz == 0 {
			t.Fatalf("cluster %d empty", ci)
		}
		if sz > 2 {
			t.Fatalf("cluster %d holds %d points; matching allows at most 2", ci, sz)
		}
		if sz == 2 && carea[ci] > maxArea+1e-9 {
			t.Fatalf("cluster %d area %.1f exceeds bound %.1f", ci, carea[ci], maxArea)
		}
		if math.Abs(carea[ci]-coarse.areas[ci]) > 1e-9 {
			t.Fatalf("cluster %d area %.3f disagrees with coarse problem %.3f", ci, carea[ci], coarse.areas[ci])
		}
	}
	if coarse.n > prob.n*19/20 {
		t.Fatalf("coarsening kept %d of %d points, reduction below 5%%", coarse.n, prob.n)
	}
}

// TestCoarsenConservesConnectivity: every fine net whose pins touch at
// least two distinct clusters (or a cluster and a pad) must survive as a
// coarse net over exactly those terminals, in fine-net order; nets fully
// interior to one cluster must vanish. Total coarse pin count therefore
// never exceeds the fine pin count.
func TestCoarsenConservesConnectivity(t *testing.T) {
	prob := mlProblemFor(t, "C880")
	parent, coarse, ok := coarsenOnce(prob)
	if !ok {
		t.Fatal("coarsening failed to shrink C880")
	}
	finePins, coarsePins := 0, 0
	ci := 0
	for ni, nd := range prob.nets {
		finePins += len(nd.pins)
		// Independent projection: pads in place, cluster pins deduped to
		// first occurrence.
		var want []netPin
		seen := map[int32]bool{}
		for _, pin := range nd.pins {
			if pin.pad != nil {
				want = append(want, pin)
				continue
			}
			if pin.cell < 0 {
				continue
			}
			c := parent[pin.cell]
			if !seen[c] {
				seen[c] = true
				want = append(want, netPin{cell: int(c)})
			}
		}
		if len(want) < 2 {
			continue // interior to a cluster: must be dropped
		}
		if ci >= len(coarse.nets) {
			t.Fatalf("fine net %d has no coarse image (only %d coarse nets)", ni, len(coarse.nets))
		}
		got := coarse.nets[ci].pins
		if len(got) != len(want) {
			t.Fatalf("fine net %d: coarse image has %d pins, want %d", ni, len(got), len(want))
		}
		for k := range want {
			if got[k].pad != want[k].pad || (want[k].pad == nil && got[k].cell != want[k].cell) {
				t.Fatalf("fine net %d pin %d: got %+v want %+v", ni, k, got[k], want[k])
			}
		}
		coarsePins += len(got)
		ci++
	}
	if ci != len(coarse.nets) {
		t.Fatalf("%d coarse nets produced, %d expected from projection", len(coarse.nets), ci)
	}
	if coarsePins > finePins {
		t.Fatalf("coarse pin total %d exceeds fine total %d", coarsePins, finePins)
	}
}

// TestExpandRegionsInvariants: unclustering a region forest must keep
// every fine point in exactly one region (its cluster's), preserve the
// rectangles, and rebuild per-region net lists in ascending order with
// at least two pins each.
func TestExpandRegionsInvariants(t *testing.T) {
	prob := mlProblemFor(t, "misex1")
	parent, coarse, ok := coarsenOnce(prob)
	if !ok {
		t.Fatal("coarsening failed to shrink misex1")
	}
	// Two coarse regions: even clusters left, odd clusters right.
	left := &region{rect: rectOf(0, 0, 500, 1000)}
	right := &region{rect: rectOf(500, 0, 1000, 1000)}
	for c := 0; c < coarse.n; c++ {
		if c%2 == 0 {
			left.cells = append(left.cells, c)
		} else {
			right.cells = append(right.cells, c)
		}
	}
	out := expandRegions([]*region{left, right}, parent, coarse.n, prob)
	if len(out) != 2 {
		t.Fatalf("expand produced %d regions, want 2", len(out))
	}
	if out[0].rect != left.rect || out[1].rect != right.rect {
		t.Fatal("region rectangles not preserved across expansion")
	}
	seen := make([]int, prob.n)
	for ri, r := range out {
		prev := -1
		for _, c := range r.cells {
			seen[c]++
			if int(parent[c])%2 != ri {
				t.Fatalf("point %d (cluster %d) landed in region %d", c, parent[c], ri)
			}
			if c <= prev {
				t.Fatalf("region %d cells not ascending: %d after %d", ri, c, prev)
			}
			prev = c
		}
		prevN := int32(-1)
		for _, ni := range r.nets {
			if ni <= prevN {
				t.Fatalf("region %d nets not ascending", ri)
			}
			prevN = ni
			cnt := 0
			for _, pin := range prob.nets[ni].pins {
				if c := pinCell(pin); c >= 0 && int(parent[c])%2 == ri {
					cnt++
				}
			}
			if cnt < 2 {
				t.Fatalf("region %d lists net %d with %d interior pins", ri, ni, cnt)
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("point %d appears in %d regions", i, c)
		}
	}
}

// placeWithConfig places a premapped benchmark with the given config.
func placeWithConfig(t *testing.T, name string, cfg Config) (*logic.Network, *Result) {
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
	pr, err := Global(sub, func(logic.NodeID) float64 { return 24 }, 60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sub, pr
}

// TestMultilevelPlacesInsideDie: with the V-cycle engaged, every node
// still lands inside the die, every movable node keeps a region that
// contains it, and pads stay on the boundary.
func TestMultilevelPlacesInsideDie(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MultilevelThreshold = 200
	sub, pr := placeWithConfig(t, "C880", cfg)
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
		if nd.Kind == logic.KindLogic {
			r, ok := pr.Regions[nd.ID]
			if !ok || r.IsEmpty() {
				t.Fatalf("node %s has no region", nd.Name)
			}
			if !r.Contains(pt) {
				t.Errorf("node %s at %v outside its region %v", nd.Name, pt, r)
			}
		}
	}
	for name, pt := range pr.POPads {
		if !onBoundary(pt, pr.Die) {
			t.Errorf("PO pad %s at %v not on boundary", name, pt)
		}
	}
	// The multilevel path must actually have engaged: it produces a
	// different (coarse-seeded) solution than the flat path.
	_, flat := placeWithConfig(t, "C880", DefaultConfig())
	same := true
	for id, pt := range pr.Pos {
		if flat.Pos[id] != pt {
			same = false
			break
		}
	}
	if same {
		t.Fatal("multilevel placement identical to flat: V-cycle did not engage")
	}
}

// TestMultilevelHPWLComparableToFlat: the V-cycle is a scaling device,
// not a quality trade — on a midsize circuit where the flat path is
// still comfortable, the coarse-seeded solution must stay within 2x of
// the flat solution's total HPWL (in practice it lands within a few
// percent; the logged ratio feeds EXPERIMENTS.md's size sweep).
func TestMultilevelHPWLComparableToFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("flat-vs-multilevel quality comparison skipped under -short")
	}
	flatCfg := DefaultConfig()
	flatCfg.MultilevelThreshold = -1
	sub, flat := placeWithConfig(t, "mid5k", flatCfg)

	mlCfg := DefaultConfig()
	mlCfg.MultilevelThreshold = 1000
	subML, ml := placeWithConfig(t, "mid5k", mlCfg)

	hpFlat := flat.TotalHPWL(sub)
	hpML := ml.TotalHPWL(subML)
	if hpFlat <= 0 || hpML <= 0 {
		t.Fatalf("non-positive HPWL: flat %v, multilevel %v", hpFlat, hpML)
	}
	ratio := hpML / hpFlat
	t.Logf("mid5k: flat HPWL %.0f um, multilevel HPWL %.0f um, ratio %.3f", hpFlat, hpML, ratio)
	if ratio > 2 {
		t.Errorf("multilevel HPWL %.0f is %.2fx flat %.0f (want <= 2x)", hpML, ratio, hpFlat)
	}
}

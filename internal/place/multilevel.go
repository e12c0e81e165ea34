package place

import (
	"sort"

	"lily/internal/geom"
)

// Multilevel placement (DESIGN.md §15): from multilevelThreshold movable
// cells on, the flat CG+FM engine no longer sees the whole problem at
// once. Seeded heavy-edge matching coarsens the netlist level by level
// until the coarsest problem fits the flat engine comfortably; the flat
// phases place that level, and each uncluster step seeds children at the
// parent cluster position, expands the bipartition tree through the
// cluster map, and runs one bounded anchored CG solve before the
// partition continues splitting the expanded regions. Every step visits
// vertices and nets in fixed ascending order with explicit tie-breaks, so
// the V-cycle is byte-deterministic at any GOMAXPROCS.

// mlRefineIters caps the conjugate-gradient iteration budget of the
// per-uncluster refinement solve; the continuation solves inside
// partitionFrom keep the full budget.
const mlRefineIters = 120

// mlProblem is one level of the V-cycle: n points with areas, connected
// by nets whose cell pins are point indices at this level. Pads are
// shared across levels (cluster positions and pad assignment agree on the
// same boundary objects).
type mlProblem struct {
	n     int
	areas []float64
	nets  []netDef
}

// mlLevel records one coarsening step: the finer problem and the
// fine-point -> cluster-index map.
type mlLevel struct {
	fine   mlProblem
	parent []int32
}

// install points the solver core at a level's problem.
func (p *placer) install(prob mlProblem) {
	p.n = prob.n
	p.areas = prob.areas
	p.nets = prob.nets
	p.sys = nil
}

// mlMaxLevels sizes the partition depth so the continuation can keep
// splitting down to minRegion at the finest level (the flat default is
// tuned for flat-sized instances).
func (p *placer) mlMaxLevels(finestN int) int {
	need := 2
	for sz := finestN; sz > minRegion; sz = (sz + 1) / 2 {
		need++
	}
	if need < maxLevels {
		need = maxLevels
	}
	return need
}

// run is the placement driver: a V-cycle whose flat case coarsens zero
// times. From mlThreshold cells on (never when it is <= 0) it coarsens
// until the problem fits the flat engine, stopping early when coarsening
// cannot reduce the instance (tiny or pathological netlists).
func (p *placer) run(mlThreshold int) (*Result, error) {
	cur := mlProblem{n: p.n, areas: p.areas, nets: p.nets}
	target := max(mlThreshold/8, 64)
	coarsen := mlThreshold > 0 && p.n >= mlThreshold
	var stack []mlLevel
	for coarsen && cur.n > target {
		parent, coarse, ok := coarsenOnce(cur)
		if !ok {
			break
		}
		stack = append(stack, mlLevel{fine: cur, parent: parent})
		cur = coarse
	}
	maxLv := maxLevels
	if len(stack) > 0 {
		p.mlLevels = len(stack)
		maxLv = p.mlMaxLevels(p.n)
	}

	// Place the coarsest level with the full flat pipeline: free solve
	// from the die center, connectivity-driven pad assignment and a second
	// solve (skipped when the caller pinned the pads or asked for naive
	// pads; pads are shared objects, so the assignment sticks for every
	// finer level), then recursive bipartitioning with region anchors.
	p.install(cur)
	p.x = make([]float64, p.n)
	p.y = make([]float64, p.n)
	c := p.die.Center()
	for i := range p.x {
		p.x[i] = c.X
		p.y[i] = c.Y
	}
	if err := p.solveQP(nil, 0, cgMaxIter); err != nil {
		return nil, err
	}
	if p.cfg.FixedPads == nil && !p.cfg.NaivePads {
		p.assignPads()
		if err := p.solveQP(nil, 0, cgMaxIter); err != nil {
			return nil, err
		}
	}
	leaves, err := p.partitionFrom([]*region{p.rootRegion()}, 1, maxLv)
	if err != nil {
		return nil, err
	}

	// Uncluster: seed children at the parent cluster position (the
	// cluster centroid the coarse QP converged to), expand the region
	// tree through the cluster map, refine with one bounded anchored
	// solve, and let the partition continue from the depth reached so
	// far — the anchor-weight schedule carries across levels.
	for li := len(stack) - 1; li >= 0; li-- {
		lv := stack[li]
		fx := make([]float64, lv.fine.n)
		fy := make([]float64, lv.fine.n)
		for i := 0; i < lv.fine.n; i++ {
			fx[i] = p.x[lv.parent[i]]
			fy[i] = p.y[lv.parent[i]]
		}
		leaves = expandRegions(leaves, lv.parent, p.n, lv.fine)
		p.install(lv.fine)
		p.x, p.y = fx, fy

		anchor := make([]geom.Point, p.n)
		for _, r := range leaves {
			rc := r.rect.Center()
			for _, ci := range r.cells {
				anchor[ci] = rc
			}
		}
		err := p.solveQP(anchor, anchorWeight(p.levels), mlRefineIters)
		if err != nil {
			return nil, err
		}
		leaves, err = p.partitionFrom(leaves, p.levels+1, maxLv)
		if err != nil {
			return nil, err
		}
	}
	return p.assemble(leaves), nil
}

// pinCell returns a pin's point index, or -1 for pads.
func pinCell(pin netPin) int {
	if pin.pad != nil {
		return -1
	}
	return pin.cell
}

// coarsenOnce runs one level of heavy-edge matching: vertices are visited
// in ascending order and each unmatched vertex merges with its heaviest
// unmatched neighbor (ties broken toward the smallest index), subject to
// an area bound that keeps clusters within 4x the level's mean area.
// Edge weights mirror the QP connectivity model: clique 2/k for nets with
// at most eight pins, a unit star from the driver above that. Returns
// ok=false when matching cannot shrink the problem by at least 5%.
func coarsenOnce(prob mlProblem) (parent []int32, coarse mlProblem, ok bool) {
	n := prob.n
	// Pass 1: count directed adjacency entries per vertex. The CSR arrays
	// use int32: a net with k pins contributes k(k-1) directed entries
	// (clique, k <= 8) or 2(k-1) (star), so even the 500k-gate frontier —
	// ~765k subject nodes, ~765k nets — tops out near 3e7 entries, two
	// orders of magnitude under the int32 ceiling.
	deg := make([]int32, n)
	forEachNetEdge(prob.nets, func(a, b int, w float64) {
		deg[a]++
		deg[b]++
	})
	off := make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + deg[i]
	}
	nbr := make([]int32, off[n])
	wts := make([]float64, off[n])
	pos := make([]int32, n)
	copy(pos, off[:n])
	forEachNetEdge(prob.nets, func(a, b int, w float64) {
		nbr[pos[a]] = int32(b)
		wts[pos[a]] = w
		pos[a]++
		nbr[pos[b]] = int32(a)
		wts[pos[b]] = w
		pos[b]++
	})
	// Per-vertex: sort neighbors by index and merge duplicate edges by
	// summing weights (fill order is deterministic, so the sums are too).
	end := make([]int32, n) // merged segment end per vertex
	totalArea := 0.0
	for _, a := range prob.areas {
		totalArea += a
	}
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		seg := nbrSeg{ids: nbr[lo:hi], ws: wts[lo:hi]}
		sort.Sort(seg)
		w := lo
		for r := lo; r < hi; r++ {
			if w > lo && nbr[w-1] == nbr[r] {
				wts[w-1] += wts[r]
				continue
			}
			nbr[w] = nbr[r]
			wts[w] = wts[r]
			w++
		}
		end[u] = w
	}
	maxArea := 4 * totalArea / float64(n)

	parent = make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	nc := 0
	for u := 0; u < n; u++ {
		if parent[u] >= 0 {
			continue
		}
		best := -1
		bestW := 0.0
		for e := off[u]; e < end[u]; e++ {
			v := int(nbr[e])
			if v == u || parent[v] >= 0 {
				continue
			}
			if prob.areas[u]+prob.areas[v] > maxArea {
				continue
			}
			// Strict > keeps the first (smallest-index) neighbor on ties:
			// the merged list is ascending in v.
			if wts[e] > bestW {
				best, bestW = v, wts[e]
			}
		}
		ci := int32(nc)
		nc++
		parent[u] = ci
		if best >= 0 {
			parent[best] = ci
		}
	}
	if nc > n*19/20 {
		return nil, mlProblem{}, false
	}

	careas := make([]float64, nc)
	for i := 0; i < n; i++ {
		careas[parent[i]] += prob.areas[i]
	}
	// Project nets: cell pins map through parent, duplicates within a net
	// collapse (first occurrence keeps the pin slot, so the driver stays
	// first), pads carry over; nets left with fewer than two distinct
	// pins are interior to a cluster and drop out.
	stamp := make([]int32, nc)
	epoch := int32(0)
	var cnets []netDef
	for _, nd := range prob.nets {
		epoch++
		var pins []netPin
		for _, pin := range nd.pins {
			if pin.pad != nil {
				pins = append(pins, pin)
				continue
			}
			if pin.cell < 0 {
				continue
			}
			ci := parent[pin.cell]
			if stamp[ci] == epoch {
				continue
			}
			stamp[ci] = epoch
			pins = append(pins, netPin{cell: int(ci)})
		}
		if len(pins) >= 2 {
			cnets = append(cnets, netDef{pins: pins})
		}
	}
	return parent, mlProblem{n: nc, areas: careas, nets: cnets}, true
}

// forEachPinPair enumerates the weighted pin pairs of the QP
// connectivity model in a fixed order: every pair of a net's pins with
// weight 2/k up to eight pins (clique), the driver with each other pin
// at unit weight beyond (star).
func forEachPinPair(nets []netDef, fn func(a, b netPin, w float64)) {
	for _, nd := range nets {
		k := len(nd.pins)
		if k <= 8 {
			w := 2.0 / float64(k)
			for a := 0; a < k; a++ {
				for b := a + 1; b < k; b++ {
					fn(nd.pins[a], nd.pins[b], w)
				}
			}
		} else {
			for b := 1; b < k; b++ {
				fn(nd.pins[0], nd.pins[b], 1.0)
			}
		}
	}
}

// forEachNetEdge enumerates the weighted cell-cell edges of the QP
// connectivity model (forEachPinPair without pads and self-pairs).
func forEachNetEdge(nets []netDef, fn func(a, b int, w float64)) {
	forEachPinPair(nets, func(a, b netPin, w float64) {
		if ia, ib := pinCell(a), pinCell(b); ia >= 0 && ib >= 0 && ia != ib {
			fn(ia, ib, w)
		}
	})
}

// nbrSeg sorts a neighbor segment by vertex index, carrying weights along.
type nbrSeg struct {
	ids []int32
	ws  []float64
}

func (s nbrSeg) Len() int           { return len(s.ids) }
func (s nbrSeg) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s nbrSeg) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.ws[i], s.ws[j] = s.ws[j], s.ws[i]
}

// expandRegions maps a coarse bipartition forest onto the finer level:
// each fine point lands in its cluster's region (cells stay in ascending
// point order), region rectangles carry over, and the per-region net
// lists are rebuilt in one pass over the finer net list (ascending, so
// the splitRegion inheritance invariant holds).
func expandRegions(coarse []*region, parent []int32, coarseN int, fine mlProblem) []*region {
	regionOf := make([]int32, coarseN)
	out := make([]*region, len(coarse))
	for ri, r := range coarse {
		out[ri] = &region{rect: r.rect}
		for _, ci := range r.cells {
			regionOf[ci] = int32(ri)
		}
	}
	pr := make([]int32, fine.n) // fine point -> region index
	for i := 0; i < fine.n; i++ {
		ri := regionOf[parent[i]]
		pr[i] = ri
		out[ri].cells = append(out[ri].cells, i)
		out[ri].area += fine.areas[i]
	}
	cnt := make([]int32, len(out))
	var touched []int32
	for ni, nd := range fine.nets {
		for _, pin := range nd.pins {
			if ci := pinCell(pin); ci >= 0 {
				r := pr[ci]
				if cnt[r] == 0 {
					touched = append(touched, r)
				}
				cnt[r]++
			}
		}
		for _, r := range touched {
			if cnt[r] >= 2 {
				out[r].nets = append(out[r].nets, int32(ni))
			}
			cnt[r] = 0
		}
		touched = touched[:0]
	}
	return out
}

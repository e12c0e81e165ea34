package place

import (
	"context"
	"fmt"
	"math"
	"sort"

	"lily/internal/geom"
	"lily/internal/logic"
	"lily/internal/obs"
)

const (
	// utilization is the cell-area / die-area ratio used to size the die
	// when none is given (standard-cell area predictors in the style of
	// the paper's ref [15] put achievable utilization near 0.5–0.6).
	utilization = 0.55
	// minRegion stops recursive bipartitioning when a region holds at most
	// this many cells (the paper's "user-specified parameter", §3.1).
	minRegion = 12
	// cgTol and cgMaxIter control the conjugate-gradient solver.
	cgTol     = 1e-6
	cgMaxIter = 400
	// maxLevels bounds the bipartition recursion depth.
	maxLevels = 14
	// multilevelThreshold is the movable-cell count from which placement
	// runs the multilevel V-cycle (multilevel.go, DESIGN.md §15); smaller
	// instances take the flat path.
	multilevelThreshold = 25000
)

// Config tunes the global placer.
type Config struct {
	// Die, when non-empty, fixes the placement region instead of sizing
	// it from the cell area (used when re-placing a partially mapped
	// network in the coordinate system of an earlier placement, §3.2).
	Die geom.Rect
	// FixedPads pins pad positions by name (PI names and PO names) and
	// disables connectivity-driven pad assignment. Pads absent from the
	// map fall back to the uniform boundary spread.
	FixedPads map[string]geom.Point
	// NaivePads keeps the initial uniform pad spread instead of running
	// the connectivity-driven assignment — the ablation behind the
	// paper's §5 remark that the initial pad placement influences how
	// much wire reduction Lily can achieve.
	NaivePads bool
	// Deprecated: ignored; removed with the next benchmark PR.
	Parallelism int
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{}
}

// Result is a balanced global point placement.
type Result struct {
	// Pos maps every live node (PIs at their pad positions, logic nodes at
	// their placed positions) to a point on the die.
	Pos map[logic.NodeID]geom.Point
	// POPads maps each primary-output name to its pad position on the
	// boundary.
	POPads map[string]geom.Point
	// Die is the placement region.
	Die geom.Rect
	// Regions maps each movable node to its final region rectangle.
	Regions map[logic.NodeID]geom.Rect
}

// pad is a fixed boundary terminal: a PI pad (driving its net) or a PO pad
// (an extra sink on the PO node's net).
type pad struct {
	name string
	isPI bool
	node logic.NodeID // PI node, or the PO's driver node
	pos  geom.Point
}

// Global places the network: pads are assigned to the boundary by
// connectivity, then the movable gates get a balanced quadratic placement
// with recursive min-cut bipartitioning (GORDIAN-style).
func Global(net *logic.Network, cellWidth func(logic.NodeID) float64, rowHeight float64, cfg Config) (*Result, error) {
	return GlobalContext(context.Background(), net, cellWidth, rowHeight, cfg)
}

// GlobalContext is Global with cancellation: the partition levels and the
// conjugate-gradient solver check ctx and abort promptly with ctx.Err()
// when it is cancelled, so long placements can be interrupted.
func GlobalContext(ctx context.Context, net *logic.Network, cellWidth func(logic.NodeID) float64, rowHeight float64, cfg Config) (*Result, error) {
	return globalContext(ctx, net, cellWidth, rowHeight, cfg, multilevelThreshold)
}

// globalContext is GlobalContext with the V-cycle engaging at mlThreshold
// movable cells instead of multilevelThreshold (never when it is <= 0).
func globalContext(ctx context.Context, net *logic.Network, cellWidth func(logic.NodeID) float64, rowHeight float64, cfg Config, mlThreshold int) (*Result, error) {
	// Phase-scoped trace span; a context without a tracer makes this (and
	// every span method below) an allocation-free no-op.
	ctx, span := obs.StartSpan(ctx, "placement")
	defer span.End()
	p, err := newPlacer(ctx, net, cellWidth, rowHeight, cfg)
	if err != nil {
		return nil, err
	}
	res, err := p.run(mlThreshold)
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	p.fm.CGIterations.Add(uint64(p.cgIters))
	if span.Enabled() {
		span.SetInt("cells", int64(len(p.movable)))
		span.SetInt("cg_iterations", int64(p.cgIters))
		span.SetInt("partition_levels", int64(p.levels))
		span.SetInt("coarsen_levels", int64(p.mlLevels))
		span.SetFloat("hpwl_um", res.TotalHPWL(net))
	}
	return res, nil
}

// newPlacer sets up the placement problem: the movable cells, the die,
// the pads in their initial boundary spread (or pinned), and the nets.
func newPlacer(ctx context.Context, net *logic.Network, cellWidth func(logic.NodeID) float64, rowHeight float64, cfg Config) (*placer, error) {
	// Movable cells.
	var movable []logic.NodeID
	var areas []float64
	totalArea := 0.0
	for _, nd := range net.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		movable = append(movable, nd.ID)
		a := cellWidth(nd.ID) * rowHeight
		areas = append(areas, a)
		totalArea += a
	}
	if len(movable) == 0 {
		return nil, fmt.Errorf("place: network has no logic nodes")
	}
	die := cfg.Die
	// The zero Rect is a degenerate point, not the canonical empty
	// rectangle; treat any zero-extent die as "size it from the area".
	if die.IsEmpty() || die.Width() <= 0 || die.Height() <= 0 {
		side := math.Sqrt(totalArea / utilization)
		die = geom.Enclosing([]geom.Point{{X: 0, Y: 0}, {X: side, Y: side}})
	}

	// Pads: PIs then POs, initially spread uniformly around the boundary.
	var pads []*pad
	for _, pi := range net.PIs {
		pads = append(pads, &pad{name: net.Nodes[pi].Name, isPI: true, node: pi})
	}
	for i, po := range net.POs {
		pads = append(pads, &pad{name: net.PONames[i], node: po})
	}
	spreadPads(pads, die)
	if cfg.FixedPads != nil {
		for _, pd := range pads {
			if p, ok := cfg.FixedPads[pd.name]; ok {
				pd.pos = p
			}
		}
	}

	// Dense NodeID -> movable-index translation, used once while building
	// the nets; net pins carry movable indices from then on.
	idxArr := make([]int32, len(net.Nodes))
	for i := range idxArr {
		idxArr[i] = -1
	}
	for mi, id := range movable {
		idxArr[id] = int32(mi)
	}
	// Nets: one per driver with at least two terminals.
	nets := buildNets(net, pads, idxArr)

	return &placer{
		ctx: ctx, net: net, cfg: cfg, die: die,
		movable: movable, n: len(movable), areas: areas,
		pads: pads, nets: nets,
		width: cellWidth, rowHeight: rowHeight,
		fm: obs.FlowMetricsFrom(ctx),
	}, nil
}

// netPin is one terminal of a net: either a movable cell or a fixed pad.
type netPin struct {
	cell int  // movable index, or -1
	pad  *pad // fixed pad, or nil
}

type netDef struct {
	pins []netPin
}

// buildNets builds one net per driver with at least two terminals. Cell
// pins are resolved to movable indices through idxArr up front (-1 for
// non-movable cells), so every later consumer works on dense indices.
func buildNets(net *logic.Network, pads []*pad, idxArr []int32) []netDef {
	piPad := make(map[logic.NodeID]*pad)
	poPads := make(map[logic.NodeID][]*pad)
	for _, pd := range pads {
		if pd.isPI {
			piPad[pd.node] = pd
		} else {
			poPads[pd.node] = append(poPads[pd.node], pd)
		}
	}
	var nets []netDef
	for _, nd := range net.Nodes {
		if nd == nil {
			continue
		}
		var pins []netPin
		if nd.Kind == logic.KindPI {
			pins = append(pins, netPin{cell: -1, pad: piPad[nd.ID]})
		} else {
			pins = append(pins, netPin{cell: int(idxArr[nd.ID])})
		}
		for _, fo := range dedup(net.Fanouts(nd.ID)) {
			pins = append(pins, netPin{cell: int(idxArr[fo])})
		}
		for _, pd := range poPads[nd.ID] {
			pins = append(pins, netPin{cell: -1, pad: pd})
		}
		if len(pins) >= 2 {
			nets = append(nets, netDef{pins: pins})
		}
	}
	return nets
}

func dedup(ids []logic.NodeID) []logic.NodeID {
	seen := make(map[logic.NodeID]bool, len(ids))
	out := ids[:0:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// spreadPads distributes pads uniformly around the die boundary in their
// current order.
func spreadPads(pads []*pad, die geom.Rect) {
	n := len(pads)
	if n == 0 {
		return
	}
	perim := 2 * (die.Width() + die.Height())
	for i, pd := range pads {
		d := perim * float64(i) / float64(n)
		pd.pos = perimeterPoint(die, d)
	}
}

// perimeterPoint maps a distance along the boundary (counterclockwise from
// the lower-left corner) to a point.
func perimeterPoint(die geom.Rect, d float64) geom.Point {
	w, h := die.Width(), die.Height()
	d = math.Mod(d, 2*(w+h))
	switch {
	case d < w:
		return geom.Point{X: die.LL.X + d, Y: die.LL.Y}
	case d < w+h:
		return geom.Point{X: die.UR.X, Y: die.LL.Y + (d - w)}
	case d < 2*w+h:
		return geom.Point{X: die.UR.X - (d - w - h), Y: die.UR.Y}
	default:
		return geom.Point{X: die.LL.X, Y: die.UR.Y - (d - 2*w - h)}
	}
}

type placer struct {
	ctx context.Context
	net *logic.Network
	cfg Config
	die geom.Rect
	// movable maps point index -> NodeID at the finest level; the solver
	// core below it only sees n points with areas and nets, so the
	// multilevel driver can swap in coarsened problems (multilevel.go).
	movable   []logic.NodeID
	n         int
	areas     []float64
	pads      []*pad
	nets      []netDef
	width     func(logic.NodeID) float64
	rowHeight float64

	// fm receives solver-effort counters; levels and cgIters accumulate
	// partition depth and conjugate-gradient iterations for the span;
	// mlLevels counts coarsening levels when the V-cycle engages.
	fm       *obs.FlowMetrics
	levels   int
	cgIters  int
	mlLevels int

	// scratch is the movable->local projection reused by every
	// splitRegion call instead of one per region.
	scratch regionScratch
	// sys is the current problem's quadratic system, built by the first
	// solveQP and dropped when install swaps the problem.
	sys *quadSystem

	x, y []float64
}

// assemble turns the final point positions and leaf regions into a Result,
// clamping every point into its region rectangle.
func (p *placer) assemble(leaves []*region) *Result {
	rects := make([]geom.Rect, p.n)
	for _, r := range leaves {
		for _, ci := range r.cells {
			rects[ci] = r.rect
		}
	}
	res := &Result{
		Pos:     make(map[logic.NodeID]geom.Point, p.n+len(p.pads)),
		POPads:  make(map[string]geom.Point),
		Die:     p.die,
		Regions: make(map[logic.NodeID]geom.Rect, p.n),
	}
	for i, id := range p.movable {
		pt := geom.Point{X: p.x[i], Y: p.y[i]}
		r := rects[i]
		pt = clampTo(pt, r)
		res.Pos[id] = pt
		res.Regions[id] = r
	}
	for _, pd := range p.pads {
		if pd.isPI {
			res.Pos[pd.node] = pd.pos
		} else {
			res.POPads[pd.name] = pd.pos
		}
	}
	return res
}

func clampTo(pt geom.Point, r geom.Rect) geom.Point {
	if r.IsEmpty() {
		return pt
	}
	if pt.X < r.LL.X {
		pt.X = r.LL.X
	}
	if pt.X > r.UR.X {
		pt.X = r.UR.X
	}
	if pt.Y < r.LL.Y {
		pt.Y = r.LL.Y
	}
	if pt.Y > r.UR.Y {
		pt.Y = r.UR.Y
	}
	return pt
}

// solveQP solves both axes with optional per-cell anchors (region
// centers) and at most maxIter CG iterations per axis; the axes share the
// system matrix. The system is built on the first solve of a placement
// problem and reused by every later one.
func (p *placer) solveQP(anchor []geom.Point, anchorW float64, maxIter int) error {
	if p.sys == nil {
		p.sys = newQuadSystem(p.n, p.nets)
	}
	q := p.sys
	q.load(anchor, anchorW)
	itX, err := q.solve(p.ctx, q.rhsX, p.x, cgTol, maxIter)
	p.cgIters += itX
	if err != nil {
		return err
	}
	itY, err := q.solve(p.ctx, q.rhsY, p.y, cgTol, maxIter)
	p.cgIters += itY
	return err
}

// assignPads reassigns pads to boundary slots ordered by the angle of each
// pad's connected-cell centroid around the die center — the bottom-up,
// connectivity-driven pad placement of the paper's ref [20].
func (p *placer) assignPads() {
	center := p.die.Center()
	type padAngle struct {
		pd    *pad
		angle float64
	}
	// Connected-cell centroid per pad.
	conn := make(map[*pad][]geom.Point)
	for _, nd := range p.nets {
		var padsIn []*pad
		var cells []geom.Point
		for _, pin := range nd.pins {
			if pin.pad != nil {
				padsIn = append(padsIn, pin.pad)
			} else if i := pinCell(pin); i >= 0 {
				cells = append(cells, geom.Point{X: p.x[i], Y: p.y[i]})
			}
		}
		for _, pd := range padsIn {
			conn[pd] = append(conn[pd], cells...)
		}
	}
	pas := make([]padAngle, 0, len(p.pads))
	for _, pd := range p.pads {
		cent := geom.Centroid(conn[pd])
		if len(conn[pd]) == 0 {
			cent = pd.pos
		}
		pas = append(pas, padAngle{pd, math.Atan2(cent.Y-center.Y, cent.X-center.X)})
	}
	sort.SliceStable(pas, func(i, j int) bool { return pas[i].angle < pas[j].angle })
	// Boundary slots ordered by angle: start at the rightmost mid-height
	// point (angle ~0) and walk counterclockwise.
	perim := 2 * (p.die.Width() + p.die.Height())
	start := p.die.Width() + p.die.Height()/2 // middle of the right edge
	for i, pa := range pas {
		d := start + perim*float64(i)/float64(len(pas))
		pa.pd.pos = perimeterPoint(p.die, d)
	}
}

// region is one node of the bipartition tree. nets holds, in ascending
// order, the indices (into placer.nets) of the nets with at least two
// movable pins inside the region, inherited from the parent at each split
// so no level rescans the full net list.
type region struct {
	rect  geom.Rect
	cells []int // point indices, ascending
	nets  []int32
	area  float64
}

// rootRegion builds the region covering every point, with the nets that
// have at least two movable pins.
func (p *placer) rootRegion() *region {
	all := make([]int, p.n)
	total := 0.0
	for i := 0; i < p.n; i++ {
		all[i] = i
		total += p.areas[i]
	}
	r := &region{rect: p.die, cells: all, area: total}
	for ni, nd := range p.nets {
		cnt := 0
		for _, pin := range nd.pins {
			if pinCell(pin) >= 0 {
				cnt++
			}
		}
		if cnt >= 2 {
			r.nets = append(r.nets, int32(ni))
		}
	}
	return r
}

// regionScratch is the reusable point->local-index projection used by
// splitRegion. Entries are validated by an epoch stamp so clearing between
// regions is O(1) instead of O(n). The buffers below it hold one split's
// sorted cells, seed partition and projected hypergraph; each split
// refills them, since nothing of them outlives the split.
type regionScratch struct {
	local []int32
	stamp []int32
	cur   int32

	cells []int
	part  []int
	areas []float64
	// pins holds the projected nets back to back; ends[k] is where net k
	// ends, and nets slices pins at those ends once pins stops growing.
	pins []int
	ends []int
	nets [][]int
}

func (s *regionScratch) begin(n int) {
	if len(s.local) < n {
		s.local = make([]int32, n)
		s.stamp = make([]int32, n)
		s.cur = 0
	}
	if s.cur == math.MaxInt32 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.cur = 0
	}
	s.cur++
}

func (s *regionScratch) set(i int, li int32) {
	s.local[i] = li
	s.stamp[i] = s.cur
}

func (s *regionScratch) get(i int) int32 {
	if s.stamp[i] == s.cur {
		return s.local[i]
	}
	return -1
}

// partitionFrom recursively splits the given regions, re-solving the QP
// with region anchors after each level, and returns the final leaf
// regions. startLevel continues the anchor-weight schedule (the flat path
// starts at 1; the multilevel driver resumes from the depth already
// reached at the coarser level).
func (p *placer) partitionFrom(regions []*region, startLevel, maxLevel int) ([]*region, error) {
	for level := startLevel; level <= maxLevel; level++ {
		if err := p.ctx.Err(); err != nil {
			return nil, err
		}
		split := false
		var next []*region
		for _, r := range regions {
			if len(r.cells) <= minRegion {
				next = append(next, r)
				continue
			}
			a, b := p.splitRegion(r)
			next = append(next, a, b)
			split = true
		}
		regions = next
		if !split {
			break
		}
		p.levels = level
		// Re-solve with anchors pulling each cell toward its region center;
		// anchor strength grows with level so late levels dominate.
		anchor := make([]geom.Point, p.n)
		for _, r := range regions {
			c := r.rect.Center()
			for _, ci := range r.cells {
				anchor[ci] = c
			}
		}
		w := anchorWeight(level)
		if err := p.solveQP(anchor, w, cgMaxIter); err != nil {
			return nil, err
		}
	}
	return regions, nil
}

// anchorWeight is the geometric anchor-strength schedule shared by the
// flat partition and the multilevel continuation.
func anchorWeight(level int) float64 {
	return 0.08 * math.Pow(1.9, float64(level))
}

// splitRegion bisects a region along its longer axis: cells are seeded into
// halves by sorted position (area-balanced), refined by FM on the nets
// projected into the region, and the rectangle is split proportionally to
// the resulting side areas. Children inherit the parent's net list, keeping
// only nets with at least two pins on their side.
func (p *placer) splitRegion(r *region) (*region, *region) {
	horiz := r.rect.Width() >= r.rect.Height() // split along x if wide
	scr := &p.scratch
	cells := append(scr.cells[:0], r.cells...)
	scr.cells = cells
	sort.SliceStable(cells, func(a, b int) bool {
		if horiz {
			//lint:exact comparator tie-break: exact != keeps the order strict-weak
			if p.x[cells[a]] != p.x[cells[b]] {
				return p.x[cells[a]] < p.x[cells[b]]
			}
			return cells[a] < cells[b]
		}
		//lint:exact comparator tie-break: exact != keeps the order strict-weak
		if p.y[cells[a]] != p.y[cells[b]] {
			return p.y[cells[a]] < p.y[cells[b]]
		}
		return cells[a] < cells[b]
	})
	// Area-median seed.
	half := r.area / 2
	acc := 0.0
	cut := 0
	for i, c := range cells {
		acc += p.areas[c]
		if acc >= half {
			cut = i + 1
			break
		}
	}
	if cut == 0 || cut == len(cells) {
		cut = len(cells) / 2
	}

	// Local FM refinement on the hypergraph projected from the region's
	// own net list. The point→local translation is an epoch-stamped
	// scratch (-1 = outside the region) shared across all regions: this
	// projection is the hottest loop of the partition.
	scr.begin(p.n)
	scr.areas = scr.areas[:0]
	for li, c := range cells {
		scr.set(c, int32(li))
		scr.areas = append(scr.areas, p.areas[c])
	}
	scr.pins, scr.ends = scr.pins[:0], scr.ends[:0]
	for _, ni := range r.nets {
		start := len(scr.pins)
		for _, pin := range p.nets[ni].pins {
			if i := pinCell(pin); i >= 0 {
				if li := scr.get(i); li >= 0 {
					scr.pins = append(scr.pins, int(li))
				}
			}
		}
		if len(scr.pins)-start >= 2 {
			scr.ends = append(scr.ends, len(scr.pins))
		} else {
			scr.pins = scr.pins[:start]
		}
	}
	scr.nets = scr.nets[:0]
	start := 0
	for _, end := range scr.ends {
		scr.nets = append(scr.nets, scr.pins[start:end:end])
		start = end
	}
	part := scr.part[:0]
	for li := range cells {
		side := 0
		if li >= cut {
			side = 1
		}
		part = append(part, side)
	}
	scr.part = part
	FM(&Hypergraph{Areas: scr.areas, Nets: scr.nets}, part, 0.08, 3)

	a := &region{cells: nil}
	b := &region{cells: nil}
	for li, c := range cells {
		if part[li] == 0 {
			a.cells = append(a.cells, c)
			a.area += p.areas[c]
		} else {
			b.cells = append(b.cells, c)
			b.area += p.areas[c]
		}
	}
	// Project the parent's nets onto each side, preserving ascending order.
	for _, ni := range r.nets {
		ca, cb := 0, 0
		for _, pin := range p.nets[ni].pins {
			if i := pinCell(pin); i >= 0 {
				if li := scr.get(i); li >= 0 {
					if part[li] == 0 {
						ca++
					} else {
						cb++
					}
				}
			}
		}
		if ca >= 2 {
			a.nets = append(a.nets, ni)
		}
		if cb >= 2 {
			b.nets = append(b.nets, ni)
		}
	}
	frac := 0.5
	if r.area > 0 {
		frac = a.area / r.area
	}
	if horiz {
		mid := r.rect.LL.X + r.rect.Width()*frac
		a.rect = rectOf(r.rect.LL.X, r.rect.LL.Y, mid, r.rect.UR.Y)
		b.rect = rectOf(mid, r.rect.LL.Y, r.rect.UR.X, r.rect.UR.Y)
	} else {
		mid := r.rect.LL.Y + r.rect.Height()*frac
		a.rect = rectOf(r.rect.LL.X, r.rect.LL.Y, r.rect.UR.X, mid)
		b.rect = rectOf(r.rect.LL.X, mid, r.rect.UR.X, r.rect.UR.Y)
	}
	return a, b
}

func rectOf(llx, lly, urx, ury float64) geom.Rect {
	return geom.Enclosing([]geom.Point{{X: llx, Y: lly}, {X: urx, Y: ury}})
}

// Quality metrics for tests and reporting.

// TotalHPWL sums the half-perimeter length over all nets at the placed
// positions, folding the per-net lengths in driver order.
func (r *Result) TotalHPWL(net *logic.Network) float64 {
	total := 0.0
	for _, nd := range net.Nodes {
		if nd == nil {
			continue
		}
		pts := []geom.Point{r.Pos[nd.ID]}
		for _, fo := range dedup(net.Fanouts(nd.ID)) {
			pts = append(pts, r.Pos[fo])
		}
		for i, po := range net.POs {
			if po == nd.ID {
				pts = append(pts, r.POPads[net.PONames[i]])
			}
		}
		if len(pts) >= 2 {
			total += geom.Enclosing(pts).HalfPerimeter()
		}
	}
	return total
}

// DensityImbalance splits the die into a g×g grid and returns the ratio of
// the most populated bin's cell count to the mean — a balance check (a
// perfectly uniform placement scores 1).
func (r *Result) DensityImbalance(net *logic.Network, g int) float64 {
	bins := make([]int, g*g)
	n := 0
	for _, nd := range net.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		pt := r.Pos[nd.ID]
		bx := int(float64(g) * (pt.X - r.Die.LL.X) / (r.Die.Width() + 1e-9))
		by := int(float64(g) * (pt.Y - r.Die.LL.Y) / (r.Die.Height() + 1e-9))
		if bx < 0 {
			bx = 0
		}
		if bx >= g {
			bx = g - 1
		}
		if by < 0 {
			by = 0
		}
		if by >= g {
			by = g - 1
		}
		bins[by*g+bx]++
		n++
	}
	max := 0
	for _, c := range bins {
		if c > max {
			max = c
		}
	}
	mean := float64(n) / float64(g*g)
	if mean == 0 {
		return 0
	}
	return float64(max) / mean
}

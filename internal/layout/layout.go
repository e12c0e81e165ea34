// Package layout is the physical-design backend both pipelines share
// (paper §5: "In both cases we use the same placement, pin assignment and
// routing tools"): a standard-cell row placer with greedy improvement in
// the spirit of TimberWolf, and a channel-density routing model standing in
// for the TimberWolf global router + YACR channel router. It turns a
// mapped netlist into the three quantities the paper's Table 1 reports:
// active cell area, final chip area after routing, and total
// interconnection length.
package layout

import (
	"fmt"
	"math"
	"sort"

	"lily/internal/geom"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/netlist"
	"lily/internal/place"
	"lily/internal/wire"
)

const (
	// swapPasses is the number of greedy improvement sweeps over the rows.
	swapPasses = 4
	// wireModel estimates the final routed length of each net.
	wireModel = wire.ModelSpanningTree
)

// Options tunes the backend.
type Options struct {
	// Place configures the from-scratch global placement used for
	// netlists without seed positions (the MIS pipeline).
	Place place.Config
	// Anneal runs a seeded simulated-annealing refinement after the
	// greedy passes — closer to the TimberWolf backend the paper used,
	// at a runtime cost.
	Anneal bool
}

// DefaultOptions returns the backend configuration shared by all
// experiments.
func DefaultOptions() Options {
	return Options{Place: place.DefaultConfig()}
}

// Result reports the finished layout.
type Result struct {
	// ChipWidth and ChipHeight are the die dimensions in µm after
	// channel heights are folded in.
	ChipWidth, ChipHeight float64
	// ActiveArea is the summed gate area (µm²).
	ActiveArea float64
	// Rows is the number of cell rows.
	Rows int
	// ChannelDensities holds the peak density (tracks) of each routing
	// channel, bottom to top (Rows+1 entries).
	ChannelDensities []int
	// TotalWirelength is the estimated routed length over all nets (µm).
	TotalWirelength float64
	// Netlist is the input netlist with legalized cell positions.
	Netlist *netlist.Netlist
}

// ChipArea returns the die area in µm².
func (r *Result) ChipArea() float64 { return r.ChipWidth * r.ChipHeight }

// ChipAreaMM2 returns the die area in mm², the paper's unit.
func (r *Result) ChipAreaMM2() float64 { return r.ChipArea() / 1e6 }

// ActiveAreaMM2 returns the active cell area in mm².
func (r *Result) ActiveAreaMM2() float64 { return r.ActiveArea / 1e6 }

// WirelengthMM returns the interconnect length in mm.
func (r *Result) WirelengthMM() float64 { return r.TotalWirelength / 1e3 }

// Place runs the backend. If the netlist carries seed positions (Lily's
// constructive placement) they steer row assignment; otherwise a global
// placement of the mapped netlist is computed first (the MIS pipeline).
func Place(nl *netlist.Netlist, lib *library.Library, opt Options) (*Result, error) {
	if len(nl.Cells) == 0 {
		return nil, fmt.Errorf("layout: empty netlist")
	}
	if !HasSeedPositions(nl) {
		if err := GlobalPlace(nl, lib, opt.Place); err != nil {
			return nil, err
		}
	}
	res := &Result{Netlist: nl}
	for _, c := range nl.Cells {
		res.ActiveArea += c.Gate.Area
	}

	rows := buildRows(nl, lib)
	res.Rows = len(rows)
	improveRows(nl, rows, lib, swapPasses)
	if opt.Anneal {
		annealRows(nl, rows, lib, defaultAnneal())
		improveRows(nl, rows, lib, 2) // greedy cleanup after the anneal
	}
	chipW := finalizeRows(nl, rows, lib)

	dens := channelDensities(nl, rows, lib, chipW)
	res.ChannelDensities = dens
	chipH := float64(len(rows)) * lib.RowHeight
	for _, d := range dens {
		chipH += float64(d) * lib.WirePitch
	}
	res.ChipWidth, res.ChipHeight = chipW, chipH

	// Re-project pads onto the final chip boundary and stack rows with
	// their channel offsets before measuring wirelength.
	applyChannelOffsets(nl, rows, dens, lib)
	projectPads(nl, chipW, chipH)

	var ws wire.Scratch
	for _, net := range nl.Nets() {
		res.TotalWirelength += ws.NetLength(wireModel, nl.NetPins(net))
	}
	return res, nil
}

// HasSeedPositions reports whether any cell carries a placement position
// (Lily netlists do; freshly mapped MIS netlists do not).
func HasSeedPositions(nl *netlist.Netlist) bool {
	for _, c := range nl.Cells {
		if c.Pos != (geom.Point{}) {
			return true
		}
	}
	return false
}

// GlobalPlace runs the quadratic placer on the mapped netlist by
// expressing it as a logic network (gate functions are irrelevant to
// placement; only connectivity and cell widths matter). Cell positions,
// PI positions, and PO pads are filled in.
func GlobalPlace(nl *netlist.Netlist, lib *library.Library, cfg place.Config) error {
	g := logic.New(nl.Name)
	piID := make([]logic.NodeID, len(nl.PINames))
	for i, name := range nl.PINames {
		piID[i] = g.AddPI(name).ID
	}
	order, err := nl.TopoOrder()
	if err != nil {
		return err
	}
	cellID := make([]logic.NodeID, len(nl.Cells))
	widths := make(map[logic.NodeID]float64)
	refID := func(r netlist.Ref) logic.NodeID {
		if r.IsPI {
			return piID[r.Index]
		}
		return cellID[r.Index]
	}
	for _, ci := range order {
		c := nl.Cells[ci]
		fanins := make([]logic.NodeID, len(c.Inputs))
		for i, r := range c.Inputs {
			fanins[i] = refID(r)
		}
		nd := g.AddLogic(c.Name, fanins, logic.OrSOP(len(fanins)))
		cellID[ci] = nd.ID
		widths[nd.ID] = c.Gate.Width
	}
	for _, po := range nl.POs {
		g.MarkPO(refID(po.Driver), po.Name)
	}
	pr, err := place.Global(g, func(id logic.NodeID) float64 { return widths[id] }, lib.RowHeight, cfg)
	if err != nil {
		return err
	}
	for ci := range nl.Cells {
		nl.Cells[ci].Pos = pr.Pos[cellID[ci]]
	}
	for i := range nl.PINames {
		nl.PIPos[i] = pr.Pos[piID[i]]
	}
	for i := range nl.POs {
		nl.POs[i].Pad = pr.POPads[nl.POs[i].Name]
	}
	return nil
}

// row holds an ordered list of cell indices.
type row struct {
	cells []int
	width float64
}

// buildRows assigns cells to rows by their seed y-coordinate and orders
// each row by seed x.
func buildRows(nl *netlist.Netlist, lib *library.Library) []*row {
	totalW := 0.0
	for _, c := range nl.Cells {
		totalW += c.Gate.Width
	}
	// Aim for a square die: rows × rowPitch ≈ totalW / rows, with the row
	// pitch inflated by an expected one-rowHeight channel.
	pitch := 2 * lib.RowHeight
	numRows := int(math.Round(math.Sqrt(totalW / pitch)))
	if numRows < 1 {
		numRows = 1
	}
	capacity := totalW / float64(numRows) * 1.05

	order := make([]int, len(nl.Cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := nl.Cells[order[a]].Pos, nl.Cells[order[b]].Pos
		if pa.Y < pb.Y {
			return true
		}
		if pa.Y > pb.Y {
			return false
		}
		return pa.X < pb.X
	})
	rows := make([]*row, 1, numRows)
	rows[0] = &row{}
	for _, ci := range order {
		r := rows[len(rows)-1]
		if r.width+nl.Cells[ci].Gate.Width > capacity && len(rows) < numRows {
			r = &row{}
			rows = append(rows, r)
		}
		r.cells = append(r.cells, ci)
		r.width += nl.Cells[ci].Gate.Width
	}
	for _, r := range rows {
		sort.SliceStable(r.cells, func(a, b int) bool {
			return nl.Cells[r.cells[a]].Pos.X < nl.Cells[r.cells[b]].Pos.X
		})
	}
	return rows
}

// legalize assigns abutted x positions and the row's y to every cell.
func legalize(nl *netlist.Netlist, rows []*row, lib *library.Library) {
	for ri, r := range rows {
		x := 0.0
		y := (float64(ri) + 0.5) * lib.RowHeight
		for _, ci := range r.cells {
			c := nl.Cells[ci]
			c.Pos = geom.Point{X: x + c.Gate.Width/2, Y: y}
			x += c.Gate.Width
		}
		r.width = x
	}
}

// netIndex is the sparse connectivity index shared by the greedy and
// annealing refiners. The per-cell net lists are a CSR array (two int32
// slices instead of a slice-of-slices), the affected-set query replaces
// a per-move map with a stamp array, and the half-perimeter evaluator
// folds min/max inline instead of materializing a pin slice — at the
// 500k-gate frontier the refiners evaluate hundreds of millions of
// candidate moves, and the per-move allocations were the dominant cost.
type netIndex struct {
	nl   *netlist.Netlist
	nets []netlist.Net
	// off/ids: cell c drives or sinks nets ids[off[c]:off[c+1]]. A net
	// with k pins contributes k entries, so even the frontier tops out
	// around 4e6 — far under the int32 ceiling.
	off   []int32
	ids   []int32
	stamp []int32 // last epoch each net entered an affected set
	epoch int32
	buf   []int // affected-set scratch, reused across moves
}

func newNetIndex(nl *netlist.Netlist) *netIndex {
	ix := &netIndex{nl: nl, nets: nl.Nets()}
	deg := make([]int32, len(nl.Cells))
	for _, net := range ix.nets {
		for _, s := range net.Sinks {
			deg[s.Cell]++
		}
		if !net.Driver.IsPI {
			deg[net.Driver.Index]++
		}
	}
	ix.off = make([]int32, len(nl.Cells)+1)
	for i, d := range deg {
		ix.off[i+1] = ix.off[i] + d
	}
	ix.ids = make([]int32, ix.off[len(nl.Cells)])
	pos := make([]int32, len(nl.Cells))
	copy(pos, ix.off[:len(nl.Cells)])
	for ni, net := range ix.nets {
		for _, s := range net.Sinks {
			ix.ids[pos[s.Cell]] = int32(ni)
			pos[s.Cell]++
		}
		if !net.Driver.IsPI {
			ix.ids[pos[net.Driver.Index]] = int32(ni)
			pos[net.Driver.Index]++
		}
	}
	ix.stamp = make([]int32, len(ix.nets))
	for i := range ix.stamp {
		ix.stamp[i] = -1
	}
	return ix
}

// hp returns the net's half-perimeter at the current positions without
// allocating: the min/max fold is the same arithmetic as
// geom.Enclosing(pins).HalfPerimeter(), bit for bit.
func (ix *netIndex) hp(ni int) float64 {
	net := &ix.nets[ni]
	p := ix.nl.DriverPos(net.Driver)
	minX, maxX, minY, maxY := p.X, p.X, p.Y, p.Y
	ext := func(p geom.Point) {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	for _, s := range net.Sinks {
		ext(ix.nl.Cells[s.Cell].Pos)
	}
	for _, p := range net.POPads {
		ext(p)
	}
	return (maxX - minX) + (maxY - minY)
}

// affected returns the deduplicated union of the two cells' nets in
// first-occurrence order (a's nets, then b's). The returned slice is
// reused by the next call.
func (ix *netIndex) affected(a, b int) []int {
	ix.epoch++
	ix.buf = ix.buf[:0]
	for _, c := range [2]int{a, b} {
		for _, ni := range ix.ids[ix.off[c]:ix.off[c+1]] {
			if ix.stamp[ni] != ix.epoch {
				ix.stamp[ni] = ix.epoch
				ix.buf = append(ix.buf, int(ni))
			}
		}
	}
	return ix.buf
}

// totalHP sums hp over the given nets in slice order.
func (ix *netIndex) totalHP(ns []int) float64 {
	t := 0.0
	for _, ni := range ns {
		t += ix.hp(ni)
	}
	return t
}

// improveRows runs greedy passes: adjacent swaps inside rows and
// width-compatible exchanges between vertically neighboring rows,
// accepting any move that shrinks the half-perimeter wirelength of the
// affected nets (a zero-temperature TimberWolf).
func improveRows(nl *netlist.Netlist, rows []*row, lib *library.Library, passes int) {
	legalize(nl, rows, lib)
	ix := newNetIndex(nl)

	for pass := 0; pass < passes; pass++ {
		improved := false
		// Adjacent swaps within each row.
		for _, r := range rows {
			for i := 0; i+1 < len(r.cells); i++ {
				a, b := r.cells[i], r.cells[i+1]
				ns := ix.affected(a, b)
				before := ix.totalHP(ns)
				swapInRow(nl, r, i)
				if ix.totalHP(ns) < before-1e-9 {
					improved = true
				} else {
					swapInRow(nl, r, i) // revert
				}
			}
		}
		// Width-compatible vertical exchanges between adjacent rows.
		for ri := 0; ri+1 < len(rows); ri++ {
			lower, upper := rows[ri], rows[ri+1]
			for li, a := range lower.cells {
				ui := nearestByX(nl, upper, nl.Cells[a].Pos.X)
				if ui < 0 {
					continue
				}
				b := upper.cells[ui]
				wa, wb := nl.Cells[a].Gate.Width, nl.Cells[b].Gate.Width
				if math.Abs(wa-wb) > 0.3*math.Max(wa, wb) {
					continue
				}
				ns := ix.affected(a, b)
				before := ix.totalHP(ns)
				pa, pb := nl.Cells[a].Pos, nl.Cells[b].Pos
				nl.Cells[a].Pos, nl.Cells[b].Pos = geom.Point{X: pb.X, Y: pb.Y}, geom.Point{X: pa.X, Y: pa.Y}
				if ix.totalHP(ns) < before-1e-9 {
					lower.cells[li], upper.cells[ui] = b, a
					improved = true
				} else {
					nl.Cells[a].Pos, nl.Cells[b].Pos = pa, pb
				}
			}
		}
		if !improved {
			break
		}
	}
	legalize(nl, rows, lib)
}

// swapInRow exchanges cells i and i+1 of a row and recomputes their x.
func swapInRow(nl *netlist.Netlist, r *row, i int) {
	a, b := r.cells[i], r.cells[i+1]
	ca, cb := nl.Cells[a], nl.Cells[b]
	left := ca.Pos.X - ca.Gate.Width/2
	r.cells[i], r.cells[i+1] = b, a
	cb.Pos = geom.Point{X: left + cb.Gate.Width/2, Y: cb.Pos.Y}
	ca.Pos = geom.Point{X: left + cb.Gate.Width + ca.Gate.Width/2, Y: ca.Pos.Y}
}

// nearestByX returns the index in r.cells of the cell whose x-center is
// nearest to x. Rows are kept sorted by ascending Pos.X — legalize
// establishes the order and every accepted refiner move preserves it —
// so a binary search finds the neighborhood in O(log n) where the old
// linear scan made inter-row exchange passes O(n^1.5) in the cell count.
// Ties resolve to the leftmost index, exactly as the scan did.
func nearestByX(nl *netlist.Netlist, r *row, x float64) int {
	n := len(r.cells)
	if n == 0 {
		return -1
	}
	i := sort.Search(n, func(i int) bool { return nl.Cells[r.cells[i]].Pos.X >= x })
	best := -1
	bestD := math.MaxFloat64
	if i > 0 {
		best, bestD = i-1, x-nl.Cells[r.cells[i-1]].Pos.X
	}
	if i < n {
		if d := nl.Cells[r.cells[i]].Pos.X - x; d < bestD {
			best = i
		}
	}
	// Cells sharing an x-center sit adjacent in the sorted row; step to
	// the first of the run so ties land on the smallest index.
	//lint:exact duplicate detection must be bit-equal to reproduce the linear scan's first-minimal-index answer
	for best > 0 && nl.Cells[r.cells[best-1]].Pos.X == nl.Cells[r.cells[best]].Pos.X {
		best--
	}
	return best
}

// finalizeRows re-legalizes and returns the chip width.
func finalizeRows(nl *netlist.Netlist, rows []*row, lib *library.Library) float64 {
	legalize(nl, rows, lib)
	w := 0.0
	for _, r := range rows {
		if r.width > w {
			w = r.width
		}
	}
	return w
}

// channelDensities computes, for each of the Rows+1 routing channels, the
// peak overlap of the horizontal spans of the nets routed through it.
// A net spanning rows r1..r2 contributes its x-span to every channel
// between consecutive rows it crosses plus the channel adjacent to its
// terminals' rows; pads contribute at the bottom or top boundary channel.
func channelDensities(nl *netlist.Netlist, rows []*row, lib *library.Library, chipW float64) []int {
	numCh := len(rows) + 1
	type span struct{ lo, hi float64 }
	chSpans := make([][]span, numCh)

	rowOf := make([]int, len(nl.Cells))
	for ri, r := range rows {
		for _, ci := range r.cells {
			rowOf[ci] = ri
		}
	}
	chipH := float64(len(rows)) * lib.RowHeight
	for _, net := range nl.Nets() {
		minRow, maxRow := math.MaxInt32, -1
		lo, hi := math.MaxFloat64, -math.MaxFloat64
		touch := func(r int, x float64) {
			if r < minRow {
				minRow = r
			}
			if r > maxRow {
				maxRow = r
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if !net.Driver.IsPI {
			touch(rowOf[net.Driver.Index], nl.Cells[net.Driver.Index].Pos.X)
		} else {
			p := nl.PIPos[net.Driver.Index]
			touch(padRow(p, chipH, len(rows)), clamp(p.X, 0, chipW))
		}
		for _, s := range net.Sinks {
			touch(rowOf[s.Cell], nl.Cells[s.Cell].Pos.X)
		}
		for _, p := range net.POPads {
			touch(padRow(p, chipH, len(rows)), clamp(p.X, 0, chipW))
		}
		if maxRow < 0 || hi <= lo && minRow == maxRow {
			continue
		}
		// The net occupies the channels between its extreme rows; a net
		// confined to one row uses the channel above it.
		loCh, hiCh := minRow, maxRow
		if loCh == hiCh {
			hiCh = loCh + 1
		}
		for ch := loCh; ch <= hiCh && ch < numCh; ch++ {
			if ch < 0 {
				continue
			}
			chSpans[ch] = append(chSpans[ch], span{lo, hi})
		}
	}

	dens := make([]int, numCh)
	for ch, spans := range chSpans {
		type ev struct {
			x     float64
			delta int
		}
		evs := make([]ev, 0, 2*len(spans))
		for _, s := range spans {
			evs = append(evs, ev{s.lo, 1}, ev{s.hi, -1})
		}
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].x < evs[b].x {
				return true
			}
			if evs[a].x > evs[b].x {
				return false
			}
			return evs[a].delta > evs[b].delta // open before close at ties
		})
		cur, max := 0, 0
		for _, e := range evs {
			cur += e.delta
			if cur > max {
				max = cur
			}
		}
		dens[ch] = max
	}
	return dens
}

// padRow maps a pad y-coordinate to a pseudo row index so boundary nets
// enter the bottom (row -1 → clamped to 0) or top channel.
func padRow(p geom.Point, chipH float64, numRows int) int {
	if p.Y <= chipH/2 {
		return 0
	}
	return numRows - 1
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// applyChannelOffsets stacks rows with their channel heights so final cell
// positions reflect the routed chip.
func applyChannelOffsets(nl *netlist.Netlist, rows []*row, dens []int, lib *library.Library) {
	y := float64(dens[0]) * lib.WirePitch // bottom channel
	for ri, r := range rows {
		for _, ci := range r.cells {
			c := nl.Cells[ci]
			c.Pos = geom.Point{X: c.Pos.X, Y: y + lib.RowHeight/2}
		}
		y += lib.RowHeight
		if ri+1 < len(dens) {
			y += float64(dens[ri+1]) * lib.WirePitch
		}
	}
}

// projectPads rescales pad positions onto the final chip boundary.
func projectPads(nl *netlist.Netlist, chipW, chipH float64) {
	var maxX, maxY float64
	for _, p := range nl.PIPos {
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	for _, po := range nl.POs {
		maxX, maxY = math.Max(maxX, po.Pad.X), math.Max(maxY, po.Pad.Y)
	}
	if maxX <= 0 {
		maxX = 1
	}
	if maxY <= 0 {
		maxY = 1
	}
	proj := func(p geom.Point) geom.Point {
		return geom.Point{X: clamp(p.X/maxX, 0, 1) * chipW, Y: clamp(p.Y/maxY, 0, 1) * chipH}
	}
	for i := range nl.PIPos {
		nl.PIPos[i] = snapToBoundary(proj(nl.PIPos[i]), chipW, chipH)
	}
	for i := range nl.POs {
		nl.POs[i].Pad = snapToBoundary(proj(nl.POs[i].Pad), chipW, chipH)
	}
}

// snapToBoundary moves a point to the nearest chip edge.
func snapToBoundary(p geom.Point, w, h float64) geom.Point {
	dLeft, dRight := p.X, w-p.X
	dBot, dTop := p.Y, h-p.Y
	min := math.Min(math.Min(dLeft, dRight), math.Min(dBot, dTop))
	switch min {
	case dLeft:
		return geom.Point{X: 0, Y: p.Y}
	case dRight:
		return geom.Point{X: w, Y: p.Y}
	case dBot:
		return geom.Point{X: p.X, Y: 0}
	default:
		return geom.Point{X: p.X, Y: h}
	}
}

// Package core implements Lily, the paper's layout-driven technology
// mapper. Lily covers the NAND2/INV subject graph by dynamic programming
// like DAGON and MIS, but every candidate match is positioned on the layout
// plane and charged an estimated wiring cost in addition to its gate area
// (area mode, §3) or its wiring load capacitance (delay mode, §4). The
// positional information comes from a balanced global placement of the
// inchoate network that is updated incrementally as matches are chosen.
//
// Hot-path engineering (DESIGN.md §11): the cover DP evaluates a wire cost
// for every candidate match of every node, so its inner loop is built
// around three invariants — match lists are memoized once per node inside
// internal/match, the per-signal true-fanout lists are cached under a
// lifecycle epoch that setState/replaceGlobal advance, and all per-match
// geometry lives in reusable scratch buffers (matchGeometry, wire.Scratch,
// timing.BlockArrival.Fill) so steady-state evaluation performs no
// allocations. Every fast path is bit-identical to the straightforward
// formulation it replaced: float additions replay in the original order and
// enclosing rectangles are extended in the original point order, keeping
// mapped output byte-identical (pinned by the root golden tests).
package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"lily/internal/cover"
	"lily/internal/cut"
	"lily/internal/geom"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
	"lily/internal/netlist"
	"lily/internal/obs"
	"lily/internal/place"
	"lily/internal/timing"
	"lily/internal/wire"
)

// Mode selects the optimization objective.
type Mode int

const (
	// ModeArea minimizes layout area: gate area plus routing area (§3).
	ModeArea Mode = iota
	// ModeDelay minimizes output arrival including wiring delay (§4).
	ModeDelay
)

func (m Mode) String() string {
	if m == ModeDelay {
		return "delay"
	}
	return "area"
}

// UpdateRule selects how a candidate match is positioned (§3.2).
type UpdateRule int

const (
	// CMOfFans places the match at the center of mass of the centers of
	// its fanin and fanout rectangles (the paper's experimental choice).
	CMOfFans UpdateRule = iota
	// CMOfMerged places the match at the center of mass of the subject
	// nodes it covers.
	CMOfMerged
	// MedianFans places the match at the Manhattan-optimal point — the
	// median of the fanin/fanout rectangle corner coordinates (§3.2).
	MedianFans
)

func (u UpdateRule) String() string {
	switch u {
	case CMOfMerged:
		return "cm-of-merged"
	case MedianFans:
		return "median-fans"
	default:
		return "cm-of-fans"
	}
}

// Target selects the implementation technology the cover DP maps onto.
// The DP itself is target-agnostic: it chooses among candidate matches
// supplied by a Backend, charging each the same placement-aware wire
// cost. TargetASIC covers with library gates found by the structural
// matcher (internal/match); the LUT targets cover with K-input lookup
// tables found by K-feasible cut enumeration (internal/cut).
type Target int

const (
	// TargetASIC maps onto the standard-cell library (the paper's flow).
	TargetASIC Target = iota
	// TargetLUT4 maps onto 4-input LUTs via K-feasible cuts.
	TargetLUT4
	// TargetLUT6 maps onto 6-input LUTs via K-feasible cuts.
	TargetLUT6
)

func (t Target) String() string {
	switch t {
	case TargetLUT4:
		return "lut4"
	case TargetLUT6:
		return "lut6"
	default:
		return "asic"
	}
}

// LUTK returns the LUT input bound of a LUT target, or 0 for ASIC.
func (t Target) LUTK() int {
	switch t {
	case TargetLUT4:
		return 4
	case TargetLUT6:
		return 6
	default:
		return 0
	}
}

// Backend supplies the candidate matches the covering DP chooses from.
// Implementations must be deterministic and memoized: MatchesAt returns
// the same read-only slice for the same node every call. The two
// implementations are match.Matcher (ASIC) and cut.Enumerator (LUTs).
type Backend interface {
	MatchesAt(v logic.NodeID) []*match.Match
}

// Options tunes the Lily mapper.
type Options struct {
	Mode   Mode
	Update UpdateRule
	// Target selects the implementation technology (ASIC library cells
	// or K-input LUTs); the covering engine is shared.
	Target Target
	// WireModel selects the net-length estimator of §3.4.
	WireModel wire.Model
	// WireWeight is the weight λ on the routing-area term of the cost
	// (§5 suggests re-running with a reduced weight when the estimate
	// misleads); 1.0 reproduces the paper's setting.
	WireWeight float64
	// OrderCones enables the exit-line cone ordering of §3.5.
	OrderCones bool
	// ReplaceEvery, when positive, re-runs the global placement on the
	// partially mapped network after every ReplaceEvery cones (§3.2:
	// "repeating the global placement on the partially mapped network
	// after a cone or a predetermined number of cones are processed"),
	// reassigning placePositions to eggs and mapPositions to hawks while
	// keeping the die and pads fixed.
	ReplaceEvery int
	// TwoPassDelay runs delay-mode mapping twice: the first pass records
	// the realized output load of every mapped node, the second pass uses
	// those loads instead of the base-function fanout estimate — the
	// MIS 2.2-style load preprocessing the paper points to in §6 for
	// overcoming its load-independent delay model.
	TwoPassDelay bool
	// Deprecated: ignored; removed with the next benchmark PR.
	Parallelism int
	// TraceLifecycle records every egg/nestling/hawk/dove transition.
	TraceLifecycle bool
	// Place configures the global placement of the inchoate network.
	Place place.Config
}

// DefaultOptions returns the configuration used for the paper's tables.
func DefaultOptions(mode Mode) Options {
	return Options{
		Mode:       mode,
		Update:     CMOfFans,
		WireModel:  wire.ModelHPWLSteiner,
		WireWeight: 1.0,
		OrderCones: true,
		Place:      place.DefaultConfig(),
	}
}

// Result is the outcome of a Lily mapping run.
type Result struct {
	// Netlist is the mapped circuit with Lily's constructive placement
	// positions on every cell.
	Netlist *netlist.Netlist
	// Placement is the global placement of the inchoate network that
	// guided the run.
	Placement *place.Result
	// Stats summarizes the node life cycle.
	Stats LifecycleStats
	// Trace holds the life-cycle transitions when requested.
	Trace []Transition
}

// Map runs Lily on a premapped subject graph.
func Map(sub *logic.Network, lib *library.Library, opt Options) (*Result, error) {
	return MapContext(context.Background(), sub, lib, opt)
}

// MapContext is Map with cancellation: the global placement and the
// per-cone mapping loop check ctx and abort with its error when it is
// cancelled, so long mapping jobs can be interrupted promptly.
func MapContext(ctx context.Context, sub *logic.Network, lib *library.Library, opt Options) (*Result, error) {
	pl, err := place.GlobalContext(ctx, sub, baseWidth(sub, lib), lib.RowHeight, opt.Place)
	if err != nil {
		return nil, err
	}
	return MapPlacedContext(ctx, sub, lib, pl, opt)
}

// MapPlaced runs Lily against an existing global placement of the subject
// graph (so callers can share one placement across ablation runs). The run
// never modifies pl.
func MapPlaced(sub *logic.Network, lib *library.Library, pl *place.Result, opt Options) (*Result, error) {
	return MapPlacedContext(context.Background(), sub, lib, pl, opt)
}

// MapPlacedContext is MapPlaced with cancellation (see MapContext).
func MapPlacedContext(ctx context.Context, sub *logic.Network, lib *library.Library, pl *place.Result, opt Options) (*Result, error) {
	if opt.Mode == ModeDelay && opt.TwoPassDelay {
		firstOpt := opt
		firstOpt.TwoPassDelay = false
		first, err := MapPlacedContext(ctx, sub, lib, pl, firstOpt)
		if err != nil {
			return nil, err
		}
		hints := recordedLoads(sub, lib, first, opt.WireModel)
		return mapPlaced(ctx, sub, lib, pl, opt, hints)
	}
	return mapPlaced(ctx, sub, lib, pl, opt, nil)
}

func mapPlaced(ctx context.Context, sub *logic.Network, lib *library.Library, pl *place.Result, opt Options, loadHints map[logic.NodeID]float64) (*Result, error) {
	if opt.WireWeight < 0 {
		return nil, fmt.Errorf("core: negative wire weight")
	}
	if opt.Target < TargetASIC || opt.Target > TargetLUT6 {
		return nil, fmt.Errorf("core: unknown target %d", opt.Target)
	}
	// The cover phase: the paper's wire-aware DP over cones. The span is
	// a no-op without a tracer in ctx (see internal/obs).
	ctx, span := obs.StartSpan(ctx, "cover")
	defer span.End()
	lm := newLily(ctx, sub, lib, pl, opt, loadHints)
	if opt.TraceLifecycle {
		lm.trace = make([]Transition, 0, 4*len(sub.Nodes))
	}
	res, err := lm.run()
	lm.fm.Pruned.Add(lm.pruned)
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	if span.Enabled() {
		span.SetInt("cones", int64(res.Stats.ConesProcessed))
		span.SetInt("hawks", int64(res.Stats.Hawks))
		span.SetInt("doves", int64(res.Stats.Doves))
		span.SetInt("reincarnations", int64(res.Stats.Reincarnations))
		span.SetInt("replacements", int64(res.Stats.Replacements))
		span.SetInt("pruned", int64(lm.pruned))
	}
	return res, nil
}

// newLily allocates the mapper state for one run: the per-node DP arrays,
// the lifecycle bookkeeping, and the scratch buffers the hot path reuses.
func newLily(ctx context.Context, sub *logic.Network, lib *library.Library, pl *place.Result, opt Options, loadHints map[logic.NodeID]float64) *lily {
	n := len(sub.Nodes)
	if opt.ReplaceEvery > 0 {
		// replaceGlobal rewrites logic positions, and callers may share
		// pl across runs (MapPlaced): the run moves its own copy, which
		// Result.Placement reports.
		own := *pl
		own.Pos = maps.Clone(pl.Pos)
		pl = &own
	}
	// Dense mirrors of the placement maps: the cover DP reads a position
	// for every fanin/fanout of every candidate match, and the map lookups
	// dominated the profile. posArr is refreshed by replaceGlobal; the PO
	// pad points never move once the die is fixed.
	posArr := make([]geom.Point, n)
	for id, p := range pl.Pos {
		posArr[id] = p
	}
	poPadPts := make([][]geom.Point, n)
	for i, po := range sub.POs {
		poPadPts[po] = append(poPadPts[po], pl.POPads[sub.PONames[i]])
	}
	var be Backend
	switch opt.Target {
	case TargetLUT4, TargetLUT6:
		be = cut.NewEnumerator(sub, lib, opt.Target.LUTK())
	default:
		be = match.NewMatcher(sub, lib)
	}
	lm := &lily{
		ctx: ctx, fm: obs.FlowMetricsFrom(ctx),
		sub: sub, lib: lib, opt: opt, pl: pl,
		backend:       be,
		state:         make([]State, n),
		best:          make([]*match.Match, n),
		cost:          make([]float64, n),
		wCost:         make([]float64, n),
		areaSum:       make([]float64, n),
		mapPos:        make([]geom.Point, n),
		blockA:        make([]*timing.BlockArrival, n),
		committed:     make([]*match.Match, n),
		hawkPos:       make([]geom.Point, n),
		hawkBlock:     make([]*timing.BlockArrival, n),
		hawkConsumers: make([][]hawkRef, n),
		everDove:      make([]bool, n),
		loadHints:     loadHints,
		posArr:        posArr,
		poPadPts:      poPadPts,
		mergedStamp:   make([]uint32, n),
		fanVer:        make([]uint64, n),
		fanStamp:      make([]uint64, n),
		fanLists:      make([][]trueFanout, n),
		fanHawkCnt:    make([]int32, n),
		fanHawkRect:   make([]geom.Rect, n),
		evalBlock:     new(timing.BlockArrival),
		bestBlock:     new(timing.BlockArrival),
	}
	for i := range lm.fanVer {
		lm.fanVer[i] = 1 // fanStamp starts at 0: first read rebuilds
	}
	return lm
}

// baseGate returns the inchoate base cell of subject node v: NAND2 for a
// two-fanin node, INV otherwise.
func baseGate(sub *logic.Network, lib *library.Library, v logic.NodeID) *library.Gate {
	if nd := sub.Node(v); nd != nil && len(nd.Fanins) == 2 {
		return lib.Nand2
	}
	return lib.Inv
}

// baseWidth returns the inchoate cell-width function (NAND2 and INV base
// cells) used for the global placement.
func baseWidth(sub *logic.Network, lib *library.Library) func(logic.NodeID) float64 {
	return func(id logic.NodeID) float64 { return baseGate(sub, lib, id).Width }
}

// hawkRef records a committed gate that consumes a signal.
type hawkRef struct {
	hawk logic.NodeID
	gate *library.Gate
}

type lily struct {
	ctx     context.Context
	fm      *obs.FlowMetrics
	sub     *logic.Network
	lib     *library.Library
	opt     Options
	backend Backend
	pl      *place.Result

	state []State
	// Tentative (nestling) dynamic-programming values.
	best    []*match.Match
	cost    []float64 // combined layout cost (area mode)
	wCost   []float64 // accumulated wire length (µm)
	areaSum []float64 // accumulated gate area (both modes)
	mapPos  []geom.Point
	blockA  []*timing.BlockArrival

	// Committed (hawk) values.
	committed []*match.Match
	hawkPos   []geom.Point
	hawkBlock []*timing.BlockArrival
	// hawkConsumers[vi] lists the committed gates consuming signal vi.
	hawkConsumers [][]hawkRef

	// everDove marks nodes that were merged away at least once; a later
	// commit turning such a node into a hawk is a reincarnation (logic
	// duplication across cones, Fig 2.2).
	everDove []bool
	// reawakened lists prior doves re-evaluated in the current cone; ones
	// the commit does not claim revert to dove.
	reawakened []logic.NodeID
	// dfs is the cone walk's scratch, reused by every processCone.
	dfs logic.DFSScratch
	// loadHints holds per-node output loads recorded by a previous delay
	// pass (TwoPassDelay); nil on the first pass.
	loadHints map[logic.NodeID]float64

	// --- hot-path scratch state (DESIGN.md §11) ---

	// posArr is the dense mirror of pl.Pos (indexed by NodeID), refreshed
	// by replaceGlobal; the DP inner loop never touches the map.
	posArr []geom.Point
	// poPadPts[v] lists the PO pad points node v drives (nil for the vast
	// majority of nodes), replacing a per-match scan over all POs.
	poPadPts [][]geom.Point

	// ws holds the wire-length work buffers for the run.
	ws wire.Scratch
	// geo is the per-match geometry scratch rebuilt by geometry().
	geo matchGeometry
	// rects accumulates the fanin/fanout rectangles of the current match.
	rects []geom.Rect
	// ptsWork is a reusable pin-list buffer for the net estimators.
	ptsWork []geom.Point
	// mergedStamp/mergedEpoch implement the O(1)-clear membership set for
	// the current match's covered nodes (v is merged iff
	// mergedStamp[v] == mergedEpoch).
	mergedStamp []uint32
	mergedEpoch uint32
	// fanVer/fanStamp/fanLists cache the per-signal true-fanout lists.
	// fanVer[v] counts the changes to signal v's list content: a lifecycle
	// transition of a consumer c (other than egg→nestling — both count as
	// live consumers at unchanged positions) bumps fanVer of every fanin
	// of c, a commit bumps fanVer of the hawk's match inputs when their
	// hawk-consumer entries are appended, and a global re-placement bumps
	// every signal (all positions moved). A cached list is valid iff
	// fanStamp[v] == fanVer[v], so transitions leave the lists of
	// untouched signals warm — under the old whole-cache epoch, every
	// reawakened dove invalidated every list in the run.
	fanVer   []uint64
	fanStamp []uint64
	fanLists [][]trueFanout
	// fanHawkCnt/fanHawkRect cache, per signal, the length of the hawk
	// prefix of fanLists[v] and the enclosing rectangle of its positions
	// (rebuilt with the list). Hawk entries never fail the merged-set
	// exclusion test, so the area-mode geometry fast path folds the whole
	// prefix in O(1): Rect.Extend keeps the first value on ties, which
	// makes the min/max fold associative bit for bit, so extending by the
	// cached prefix rectangle equals extending by each hawk in order.
	fanHawkCnt  []int32
	fanHawkRect []geom.Rect
	// Delay-mode scratch: per-pin input arrivals, per-distinct-input
	// arrivals, and a double-buffered block-arrival pair (evalBlock is
	// filled per match; the buffers swap when a match takes the lead).
	inArr     []timing.Arrival
	arrBuf    []timing.Arrival
	evalBlock *timing.BlockArrival
	bestBlock *timing.BlockArrival
	// pruned counts the candidates the area bound let evaluateArea skip.
	pruned uint64

	stats LifecycleStats
	trace []Transition
}

func (lm *lily) run() (*Result, error) {
	if err := lm.runCones(lm.coneOrder()); err != nil {
		return nil, err
	}

	nl, refs, err := cover.BuildNetlist(lm.sub, func(v logic.NodeID) *match.Match {
		return lm.committed[v]
	}, lm.sub.Name)
	if err != nil {
		return nil, err
	}
	// Attach Lily's constructive placement.
	//lint:sorted each ref targets a distinct cell slot; writes are disjoint
	for id, ref := range refs {
		if !ref.IsPI {
			nl.Cells[ref.Index].Pos = lm.hawkPos[id]
		}
	}
	for _, pi := range lm.sub.PIs {
		idx := nl.PIIndex(lm.sub.Nodes[pi].Name)
		if idx >= 0 {
			nl.PIPos[idx] = lm.pl.Pos[pi]
		}
	}
	for i := range nl.POs {
		nl.POs[i].Pad = lm.pl.POPads[nl.POs[i].Name]
	}
	return &Result{Netlist: nl, Placement: lm.pl, Stats: lm.stats, Trace: lm.trace}, nil
}

// runCones maps and commits one cone at a time in cone order (§3.5),
// re-placing every ReplaceEvery cones. Each cone reads the positions and
// lifecycle states the earlier cones committed, so the order is
// inherently sequential.
func (lm *lily) runCones(order []int) error {
	for i, poIdx := range order {
		if err := lm.ctx.Err(); err != nil {
			return err
		}
		root := lm.sub.POs[poIdx]
		if err := lm.processCone(root); err != nil {
			return err
		}
		if err := lm.commitCone(root); err != nil {
			return err
		}
		lm.stats.ConesProcessed++
		lm.fm.ConesMapped.Inc()
		if lm.opt.ReplaceEvery > 0 && i+1 < len(order) &&
			lm.stats.ConesProcessed%lm.opt.ReplaceEvery == 0 {
			if err := lm.replaceGlobal(); err != nil {
				return err
			}
			lm.stats.Replacements++
			lm.fm.Replacements.Inc()
		}
	}
	return nil
}

// coneOrder returns PO indices in processing order: the greedy minimum-
// row-sum ordering on the exit-line matrix of §3.5, or natural order.
func (lm *lily) coneOrder() []int {
	k := len(lm.sub.POs)
	if !lm.opt.OrderCones || k <= 1 {
		out := make([]int, k)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return greedyOrder(lm.sub.ExitLines())
}

// greedyOrder is the greedy minimum-row-sum order on the exit-line
// matrix m: it repeatedly takes the remaining row whose sum over the
// other remaining columns is smallest, the lowest index on ties. Each
// row's sum is kept and the taken column subtracted from it, so a pick
// costs O(k) and the whole order O(k²).
func greedyOrder(m [][]int) []int {
	k := len(m)
	sums := make([]int, k)
	for i, row := range m {
		for j, v := range row {
			if j != i {
				sums[i] += v
			}
		}
	}
	remaining := make([]bool, k)
	for i := range remaining {
		remaining[i] = true
	}
	order := make([]int, 0, k)
	for len(order) < k {
		best := -1
		for i, ok := range remaining {
			if ok && (best < 0 || sums[i] < sums[best]) {
				best = i
			}
		}
		order = append(order, best)
		remaining[best] = false
		for i, ok := range remaining {
			if ok {
				sums[i] -= m[i][best]
			}
		}
	}
	return order
}

// processCone runs the dynamic programming over one logic cone in reverse
// depth-first-search order.
func (lm *lily) processCone(root logic.NodeID) error {
	lm.reawakened = lm.reawakened[:0]
	for _, v := range lm.sub.ReverseDFS(root, &lm.dfs) {
		nd := lm.sub.Nodes[v]
		if nd.Kind != logic.KindLogic || lm.state[v] == StateHawk {
			continue
		}
		if lm.state[v] == StateDove {
			lm.reawakened = append(lm.reawakened, v)
		}
		if err := lm.setState(v, StateNestling); err != nil {
			return err
		}
		if err := lm.evaluateNode(v); err != nil {
			return err
		}
	}
	return nil
}

// matchesAt returns the candidate matches rooted at v. The backend
// memoizes per node, so repeated cone visits pay the enumeration cost
// only once.
func (lm *lily) matchesAt(v logic.NodeID) []*match.Match {
	return lm.backend.MatchesAt(v)
}

// evaluateNode picks the best match at a nestling.
func (lm *lily) evaluateNode(v logic.NodeID) error {
	matches := lm.matchesAt(v)
	if len(matches) == 0 {
		return fmt.Errorf("core: node %q has no matches", lm.sub.Nodes[v].Name)
	}
	// One wire-cost evaluation per candidate match considered by the DP.
	lm.fm.WireEvals.Add(uint64(len(matches)))
	switch lm.opt.Mode {
	case ModeArea:
		return lm.evaluateArea(v, matches)
	default:
		return lm.evaluateDelay(v, matches)
	}
}

// inputPos returns the best-known position of a match input: the committed
// mapPosition for hawks, the tentative mapPosition for nestlings, the pad
// position for PIs.
func (lm *lily) inputPos(vi logic.NodeID) geom.Point {
	switch {
	case lm.sub.Nodes[vi].Kind == logic.KindPI:
		return lm.posArr[vi]
	case lm.state[vi] == StateHawk:
		return lm.hawkPos[vi]
	default:
		return lm.mapPos[vi]
	}
}

// trueFanout is one gate-level consumer of a signal (§3.3).
type trueFanout struct {
	node logic.NodeID
	pos  geom.Point
	cap  float64
	hawk bool
}

// cachedFans returns the consumers of vi that would exist had mapping
// stopped now: committed hawks whose match inputs include vi, plus
// egg/nestling subject fanouts of vi. The list is unfiltered — callers
// drop non-hawk entries covered by the current match (they are about to
// disappear into gate(m)) via the merged-set stamp. Lists are cached per
// signal and invalidated per signal: a list is rebuilt only after an
// event that changes its own content bumped fanVer[vi] (see the field
// comment). The rebuild also refreshes the hawk-prefix summaries the
// area-mode geometry fast path folds in O(1).
func (lm *lily) cachedFans(vi logic.NodeID) []trueFanout {
	if lm.fanStamp[vi] == lm.fanVer[vi] {
		return lm.fanLists[vi]
	}
	out := lm.fanLists[vi][:0]
	hr := geom.EmptyRect()
	for _, h := range lm.hawkConsumers[vi] {
		p := lm.hawkPos[h.hawk]
		out = append(out, trueFanout{
			node: h.hawk, pos: p, cap: h.gate.InputCap, hawk: true,
		})
		hr = hr.Extend(p)
	}
	lm.fanHawkCnt[vi] = int32(len(out))
	lm.fanHawkRect[vi] = hr
	for _, fo := range lm.sub.Fanouts(vi) {
		st := lm.state[fo]
		if st != StateEgg && st != StateNestling {
			continue
		}
		out = append(out, trueFanout{
			node: fo, pos: lm.posArr[fo], cap: baseGate(lm.sub, lm.lib, fo).InputCap,
		})
	}
	lm.fanLists[vi] = out
	lm.fanStamp[vi] = lm.fanVer[vi]
	return out
}

// markMerged loads the current match's covered nodes into the O(1)-clear
// membership set.
func (lm *lily) markMerged(ids []logic.NodeID) {
	lm.mergedEpoch++
	if lm.mergedEpoch == 0 { // wrapped: reset the backing array once per 2^32 clears
		for i := range lm.mergedStamp {
			lm.mergedStamp[i] = 0
		}
		lm.mergedEpoch = 1
	}
	for _, u := range ids {
		lm.mergedStamp[u] = lm.mergedEpoch
	}
}

// inMerged reports whether u is covered by the match currently being
// evaluated (set by markMerged).
func (lm *lily) inMerged(u logic.NodeID) bool {
	return lm.mergedStamp[u] == lm.mergedEpoch
}

// matchGeometry holds the candidate gate position and the per-input fanin
// geometry of one match. It is a scratch structure: geometry() rebuilds it
// in place for every candidate match, so the cover DP's inner loop performs
// no per-match allocations once the buffers have grown to the circuit's
// working set. The per-input data are parallel slices indexed by the
// position of the input in distinctIn; variable-length per-input lists
// (surviving true fanouts, pin positions) are flat buffers with offsets.
type matchGeometry struct {
	gatePos geom.Point
	// distinctIn lists the distinct input signals of the match in
	// first-occurrence order of its pin bindings.
	distinctIn []logic.NodeID
	// boundPins[i] counts the pins of gate(m) bound to distinctIn[i].
	boundPins []int
	// faninRect[i] is the enclosing rectangle of input i's pin set — the
	// §3.3 fanin rectangle, cached for the rectangle-incremental HPWL
	// fast path (extend by the gate position instead of re-scanning pins).
	faninRect []geom.Rect
	// fansBuf/fanOff: input i's surviving true fanouts (gate(m) excluded)
	// are fansBuf[fanOff[i]:fanOff[i+1]].
	fansBuf []trueFanout
	fanOff  []int
	// ptsBuf/ptsOff: input i's pin positions (the driver first, then the
	// surviving fanouts) are ptsBuf[ptsOff[i]:ptsOff[i+1]].
	ptsBuf []geom.Point
	ptsOff []int
	// fanoutPts holds the §3.3 fanout-rectangle points of the match root.
	fanoutPts []geom.Point
}

// fans returns distinct input i's surviving true fanouts.
func (g *matchGeometry) fans(i int) []trueFanout { return g.fansBuf[g.fanOff[i]:g.fanOff[i+1]] }

// pts returns distinct input i's pin positions: driver first, then fans.
func (g *matchGeometry) pts(i int) []geom.Point { return g.ptsBuf[g.ptsOff[i]:g.ptsOff[i+1]] }

// inputIndex returns the distinctIn position of vi, or -1.
func (g *matchGeometry) inputIndex(vi logic.NodeID) int {
	for i, u := range g.distinctIn {
		if u == vi {
			return i
		}
	}
	return -1
}

// geometry computes the candidate gate position and the per-input fanin
// geometry for a match, into the run's scratch matchGeometry. The returned
// pointer is invalidated by the next geometry call.
func (lm *lily) geometry(v logic.NodeID, m *match.Match) *matchGeometry {
	g := &lm.geo
	g.distinctIn = g.distinctIn[:0]
	g.boundPins = g.boundPins[:0]
	g.faninRect = g.faninRect[:0]
	g.fansBuf = g.fansBuf[:0]
	g.ptsBuf = g.ptsBuf[:0]
	g.fanoutPts = g.fanoutPts[:0]
	g.fanOff = append(g.fanOff[:0], 0)
	g.ptsOff = append(g.ptsOff[:0], 0)

	lm.markMerged(m.Merged)
	for _, vi := range m.Inputs {
		if j := g.inputIndex(vi); j >= 0 {
			g.boundPins[j]++
			continue
		}
		g.distinctIn = append(g.distinctIn, vi)
		g.boundPins = append(g.boundPins, 1)
	}
	// The explicit pin lists feed only the exact/spanning-tree wire
	// models; the default Steiner estimator works from the fanin
	// rectangle and the pin count (derived from fanOff), so skipping the
	// per-pin appends here saves a pass over every candidate's fanouts.
	needPts := lm.opt.WireModel != wire.ModelHPWLSteiner
	// Area mode with the Steiner estimator reads nothing of fansBuf either
	// (wireIncrement needs only the rectangle and the sink count), so its
	// inner loop folds the cached hawk-prefix rectangle — hawks never fail
	// the merged-set test — and scans just the short egg/nestling tail.
	fastFans := !needPts && lm.opt.Mode == ModeArea
	rects := lm.rects[:0]
	for _, vi := range g.distinctIn {
		p := lm.inputPos(vi)
		r := geom.RectAround(p)
		fans := lm.cachedFans(vi)
		if fastFans {
			cnt := int(lm.fanHawkCnt[vi])
			r = r.Union(lm.fanHawkRect[vi])
			for _, tf := range fans[cnt:] {
				if lm.inMerged(tf.node) {
					continue // fanout covered by m: disappears into gate(m)
				}
				cnt++
				r = r.Extend(tf.pos)
			}
			g.fanOff = append(g.fanOff, g.fanOff[len(g.fanOff)-1]+cnt)
			g.faninRect = append(g.faninRect, r)
			rects = append(rects, r)
			continue
		}
		if needPts {
			g.ptsBuf = append(g.ptsBuf, p)
		}
		for _, tf := range fans {
			if !tf.hawk && lm.inMerged(tf.node) {
				continue // non-hawk fanout covered by m: disappears into gate(m)
			}
			g.fansBuf = append(g.fansBuf, tf)
			if needPts {
				g.ptsBuf = append(g.ptsBuf, tf.pos)
			}
			r = r.Extend(tf.pos)
		}
		g.fanOff = append(g.fanOff, len(g.fansBuf))
		if needPts {
			g.ptsOff = append(g.ptsOff, len(g.ptsBuf))
		}
		g.faninRect = append(g.faninRect, r)
		rects = append(rects, r)
	}
	// Fanout rectangle: unprocessed subject fanouts of v (eggs, thanks to
	// the reverse-DFS order), plus PO pads v drives.
	for _, fo := range lm.sub.Fanouts(v) {
		if !lm.inMerged(fo) {
			g.fanoutPts = append(g.fanoutPts, lm.posArr[fo])
		}
	}
	g.fanoutPts = append(g.fanoutPts, lm.poPadPts[v]...)
	if len(g.fanoutPts) > 0 {
		rects = append(rects, geom.Enclosing(g.fanoutPts))
	}
	lm.rects = rects

	switch lm.opt.Update {
	case CMOfMerged:
		pts := lm.ptsWork[:0]
		for _, u := range m.Merged {
			pts = append(pts, lm.posArr[u])
		}
		lm.ptsWork = pts
		g.gatePos = geom.Centroid(pts)
	case MedianFans:
		g.gatePos = wire.MedianPoint(rects)
	default:
		g.gatePos = wire.CenterOfMassPoint(rects)
	}
	return g
}

// wireIncrement estimates the added wire length of connecting gate(m) to
// distinct input i (§3.4): the net enclosing the driver, its surviving true
// fanouts, and gate(m), estimated by the configured model and divided by
// the sink count to avoid double-charging shared nets. For the HPWL model
// the cached fanin rectangle is extended by the gate position — identical
// to enclosing the full pin list, since Extend folds left to right.
func (lm *lily) wireIncrement(g *matchGeometry, i int) float64 {
	sinks := g.fanOff[i+1] - g.fanOff[i] + 1
	var length float64
	if lm.opt.WireModel == wire.ModelHPWLSteiner {
		npins := sinks + 1 // driver + surviving fans + gate(m)
		length = wire.HPWLNetLength(g.faninRect[i].Extend(g.gatePos), npins)
	} else {
		pts := append(lm.ptsWork[:0], g.pts(i)...)
		pts = append(pts, g.gatePos)
		lm.ptsWork = pts
		length = lm.ws.NetLength(lm.opt.WireModel, pts)
	}
	return length / float64(sinks)
}

// areaCost is the §3 area-mode objective: gate area plus λ-weighted
// routing area (wire length × routing pitch). The exact cost and the
// lower bound both go through it, and the explicit float64 conversion
// forbids fusing the multiply-add into an FMA on any GOARCH, so the two
// round identically and areaBound ≤ cost holds bit for bit.
func (lm *lily) areaCost(area, wlen float64) float64 {
	return area + float64(lm.opt.WireWeight*lm.lib.WirePitch*wlen)
}

// areaBound is the geometry-free lower bound on match m's area cost: the
// evaluateArea accumulation with every wireIncrement dropped, over the
// same distinct non-PI, non-hawk inputs in the same first-occurrence
// order. Increments are non-negative and IEEE addition and multiplication
// by a non-negative constant are monotone, so the bound never exceeds the
// cost (DESIGN.md §11). A nestling input without a match makes m
// infeasible: the bound is +Inf and m is never evaluated. PIs are never
// evaluated, so their best is always nil: the node's kind (a cold load)
// is read only for inputs without a match.
func (lm *lily) areaBound(m *match.Match) float64 {
	area := m.Gate.Area
	wlen := 0.0
	for j, vi := range m.Inputs {
		if lm.state[vi] == StateHawk || slices.Contains(m.Inputs[:j], vi) {
			continue
		}
		if lm.best[vi] == nil {
			if lm.sub.Nodes[vi].Kind == logic.KindPI {
				continue
			}
			return math.Inf(1)
		}
		area += lm.areaSum[vi]
		wlen += lm.wCost[vi]
	}
	return lm.areaCost(area, wlen)
}

// evaluateArea implements the §3 cost: aCost(v,m) plus λ-weighted routing
// area (wire length × routing pitch), both recursively accumulated. It is
// an exact branch and bound: a candidate whose areaBound is not below the
// running best cannot win — a later candidate needs a strictly lower cost
// — so it is skipped without building its geometry. The winner is the
// first minimum of the match list, exactly as a full strict-< scan picks.
func (lm *lily) evaluateArea(v logic.NodeID, matches []*match.Match) error {
	bestCost := math.Inf(1)
	var bm *match.Match
	var bmPos geom.Point
	var bmW, bmA float64
	for _, m := range matches {
		if lm.areaBound(m) >= bestCost {
			lm.pruned++
			continue
		}
		cost, wlen, area, pos := lm.areaMatchCost(v, m)
		if cost < bestCost {
			bestCost, bm, bmPos, bmW, bmA = cost, m, pos, wlen, area
		}
	}
	if bm == nil {
		return fmt.Errorf("core: no feasible match at %q", lm.sub.Nodes[v].Name)
	}
	lm.best[v] = bm
	lm.cost[v] = bestCost
	lm.wCost[v] = bmW
	lm.areaSum[v] = bmA
	lm.mapPos[v] = bmPos
	return nil
}

// areaMatchCost positions a feasible match m at v and returns its exact
// area-mode cost with the parts the DP records: the accumulated wire
// length and gate area, and the gate position.
func (lm *lily) areaMatchCost(v logic.NodeID, m *match.Match) (cost, wlen, area float64, pos geom.Point) {
	g := lm.geometry(v, m)
	area = m.Gate.Area
	for j, vi := range g.distinctIn {
		wlen += lm.wireIncrement(g, j)
		// PIs and committed hawks: their area and wiring are already
		// paid for.
		if lm.sub.Nodes[vi].Kind != logic.KindPI && lm.state[vi] != StateHawk {
			area += lm.areaSum[vi]
			wlen += lm.wCost[vi]
		}
	}
	return lm.areaCost(area, wlen), wlen, area, g.gatePos
}

// evaluateDelay implements the §4.4 procedure: for each candidate match the
// arrival times of its inputs are recomputed under the now-known load
// (gate type and position of the match), block arrival times are formed at
// the match, its output load is estimated from the base-function fanouts,
// and the match with the earliest output arrival wins.
func (lm *lily) evaluateDelay(v logic.NodeID, matches []*match.Match) error {
	bestArr := timing.Arrival{Rise: math.Inf(1), Fall: math.Inf(1)}
	bestArea := math.Inf(1)
	var bm *match.Match
	var bmPos geom.Point
	for _, m := range matches {
		g := lm.geometry(v, m)
		// Step 1: recompute input arrivals under the current load.
		// arrBuf[i] is the arrival of distinctIn[i].
		if cap(lm.inArr) < len(m.Inputs) {
			lm.inArr = make([]timing.Arrival, len(m.Inputs))
		}
		inArr := lm.inArr[:len(m.Inputs)]
		arrBuf := lm.arrBuf[:0]
		area := m.Gate.Area
		feasible := true
		for i, vi := range g.distinctIn {
			if lm.sub.Nodes[vi].Kind == logic.KindPI {
				arrBuf = append(arrBuf, timing.Arrival{})
				continue
			}
			var block *timing.BlockArrival
			switch lm.state[vi] {
			case StateHawk:
				block = lm.hawkBlock[vi]
			default:
				block = lm.blockA[vi]
				if lm.best[vi] == nil {
					feasible = false
				}
				area += lm.areaSum[vi]
			}
			if !feasible || block == nil {
				feasible = false
				break
			}
			load := lm.inputLoad(g, i, m)
			arrBuf = append(arrBuf, block.Output(load))
		}
		lm.arrBuf = arrBuf
		if !feasible {
			continue
		}
		for pin, vi := range m.Inputs {
			inArr[pin] = arrBuf[g.inputIndex(vi)]
		}
		// Steps 2–4: block arrivals at gate(m), output load from the base
		// fanouts, output arrival.
		lm.evalBlock.Fill(m.Gate, inArr)
		outLoad := lm.outputLoad(v, g)
		out := lm.evalBlock.Output(outLoad)
		if timing.Better(out, area, bestArr, bestArea) {
			bestArr, bestArea, bm, bmPos = out, area, m, g.gatePos
			lm.evalBlock, lm.bestBlock = lm.bestBlock, lm.evalBlock
		}
	}
	if bm == nil {
		return fmt.Errorf("core: no feasible match at %q", lm.sub.Nodes[v].Name)
	}
	lm.best[v] = bm
	lm.areaSum[v] = bestArea
	lm.mapPos[v] = bmPos
	lm.blockA[v] = lm.bestBlock.Clone()
	return nil
}

// inputLoad computes the load seen at distinct input i's driver when match
// m is present (§4.4 step 1): pin capacitances of the surviving true
// fanouts plus gate(m)'s pins bound to the input, plus the positional
// wiring capacitance. Capacitances accumulate in the same order as the
// original formulation so the float sums are bit-identical.
func (lm *lily) inputLoad(g *matchGeometry, i int, m *match.Match) float64 {
	caps := float64(g.boundPins[i]) * m.Gate.InputCap
	for _, tf := range g.fans(i) {
		caps += tf.cap
	}
	var x, y float64
	if lm.opt.WireModel == wire.ModelHPWLSteiner {
		npins := g.fanOff[i+1] - g.fanOff[i] + 2 // driver + fans + gate(m)
		x, y = wire.HPWLLengthXY(g.faninRect[i].Extend(g.gatePos), npins)
	} else {
		pts := append(lm.ptsWork[:0], g.pts(i)...)
		pts = append(pts, g.gatePos)
		lm.ptsWork = pts
		x, y = lm.ws.LengthXY(lm.opt.WireModel, pts)
	}
	return timing.Load(lm.lib, caps, x, y)
}

// outputLoad computes the load at the match output from the base-function
// fanouts of v (§4.3: "we instead use the nodes in the N_inchoate as the
// fanouts"), unless a previous pass recorded the realized load.
func (lm *lily) outputLoad(v logic.NodeID, g *matchGeometry) float64 {
	if cl, ok := lm.loadHints[v]; ok {
		return cl
	}
	return lm.estimatedOutputLoad(g)
}

func (lm *lily) estimatedOutputLoad(g *matchGeometry) float64 {
	caps := 0.0
	for range g.fanoutPts {
		caps += lm.lib.Nand2.InputCap
	}
	var x, y float64
	if lm.opt.WireModel == wire.ModelHPWLSteiner {
		r := geom.RectAround(g.gatePos)
		for _, p := range g.fanoutPts {
			r = r.Extend(p)
		}
		x, y = wire.HPWLLengthXY(r, 1+len(g.fanoutPts))
	} else {
		pts := append(lm.ptsWork[:0], g.gatePos)
		pts = append(pts, g.fanoutPts...)
		lm.ptsWork = pts
		x, y = lm.ws.LengthXY(lm.opt.WireModel, pts)
	}
	return timing.Load(lm.lib, caps, x, y)
}

// commitCone freezes the mapping decisions of a finished cone: needed
// nodes become hawks (recording the consumers of their input signals),
// covered interior nodes become doves. The needed walk stops at hawks:
// a hawk's inputs were needed when it was committed, so they are hawks
// or primary inputs already, and hawk is a final state.
func (lm *lily) commitCone(root logic.NodeID) error {
	needed, err := cover.NeededSet(lm.sub, func(v logic.NodeID) *match.Match {
		return lm.best[v]
	}, []logic.NodeID{root}, func(v logic.NodeID) bool {
		return lm.state[v] == StateHawk
	})
	if err != nil {
		return err
	}
	// Deterministic commit order.
	fresh := make([]logic.NodeID, 0, len(needed))
	for v := range needed {
		fresh = append(fresh, v)
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })

	for _, v := range fresh {
		if err := lm.setState(v, StateHawk); err != nil {
			return err
		}
		lm.committed[v] = lm.best[v]
		lm.hawkPos[v] = lm.mapPos[v]
		lm.hawkBlock[v] = lm.blockA[v]
		lm.stats.Hawks++
		if lm.everDove[v] {
			lm.stats.Reincarnations++
		}
		for j, vi := range lm.best[v].Inputs {
			if slices.Contains(lm.best[v].Inputs[:j], vi) {
				continue // a signal bound to several pins is one consumer
			}
			lm.hawkConsumers[vi] = append(lm.hawkConsumers[vi], hawkRef{hawk: v, gate: lm.best[v].Gate})
			// Signal vi gained a hawk consumer: its cached list is stale.
			lm.fanVer[vi]++
		}
	}
	// Doves: interior nodes of freshly committed matches.
	for _, v := range fresh {
		for _, u := range lm.committed[v].Merged[1:] {
			if lm.state[u] == StateHawk {
				continue // duplicated: exists as a gate and inside another
			}
			if lm.state[u] == StateDove {
				continue
			}
			if err := lm.setState(u, StateDove); err != nil {
				return err
			}
			lm.everDove[u] = true
			lm.stats.Doves++
		}
	}
	// Prior doves re-evaluated this cone but claimed by neither a match
	// nor a merge keep their old fate: they remain merged inside the hawk
	// that consumed them in an earlier cone.
	for _, v := range lm.reawakened {
		if lm.state[v] == StateNestling {
			if err := lm.setState(v, StateDove); err != nil {
				return err
			}
		}
	}
	return nil
}

// recordedLoads extracts the realized output load of every mapped subject
// node from a finished delay pass: timing.NetLoad of each cell-driven net
// at its constructive positions.
func recordedLoads(sub *logic.Network, lib *library.Library, first *Result, model wire.Model) map[logic.NodeID]float64 {
	nl := first.Netlist
	loads := make(map[logic.NodeID]float64, len(nl.Cells))
	var ws wire.Scratch
	for _, net := range nl.Nets() {
		if net.Driver.IsPI {
			continue
		}
		cl := timing.NetLoad(nl, lib, net, &ws, model)
		nd := sub.NodeByName(nl.Cells[net.Driver.Index].Name)
		if nd != nil {
			loads[nd.ID] = cl
		}
	}
	return loads
}

// Package lily is the public entry point of the library: a reproduction of
// "Layout Driven Technology Mapping" (Pedram & Bhat, DAC 1991). It wires
// the internal substrates — Boolean networks, NAND2/INV premapping, the
// synthetic standard-cell library, GORDIAN-style global placement, the MIS
// baseline mapper, the Lily layout-driven mapper, the standard-cell layout
// backend, and the wiring-aware static timing analyzer — into the two
// pipelines the paper compares in its Tables 1 and 2.
//
// Quick start:
//
//	c, _ := lily.GenerateBenchmark("C432")
//	res, _ := lily.RunFlow(c, lily.FlowOptions{Mapper: lily.MapperLily})
//	fmt.Println(res)
package lily

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"lily/internal/bench"
	"lily/internal/core"
	"lily/internal/decomp"
	"lily/internal/equiv"
	"lily/internal/fanout"
	"lily/internal/geom"
	"lily/internal/layout"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/mis"
	"lily/internal/netlist"
	"lily/internal/obs"
	netopt "lily/internal/opt"
	"lily/internal/place"
	"lily/internal/timing"
	"lily/internal/wire"
)

// Circuit is a technology-independent combinational Boolean network, the
// input to both mapping pipelines.
type Circuit struct {
	net *logic.Network
}

// GenerateBenchmark builds one of the synthetic stand-ins for the paper's
// MCNC/ISCAS-85 benchmarks (see DESIGN.md for the substitution rationale).
// Valid names: 9symml, C1908, C3540, C432, C499, C5315, C880, apex6,
// apex7, b9, apex3, duke2, e64, misex1, misex3 — plus the scale suite
// (ScaleBenchmarkNames): mid5k, mid10k, gen50k, gen100k, gen200k,
// gen500k.
func GenerateBenchmark(name string) (*Circuit, error) {
	p, ok := bench.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("lily: unknown benchmark %q", name)
	}
	return &Circuit{net: bench.Generate(p)}, nil
}

// BenchmarkNames returns the full benchmark suite in Table 1 order.
func BenchmarkNames() []string {
	var names []string
	for _, p := range bench.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

// ScaleBenchmarkNames returns the synthetic scale suite in ascending size
// order: two midsize golden carriers (mid5k, mid10k) and the 50k–500k-gate
// generators that exercise the multilevel placement regime. Deliberately
// separate from BenchmarkNames so the Table 1/2 reproductions keep their
// fifteen rows.
func ScaleBenchmarkNames() []string {
	var names []string
	for _, p := range bench.ScaleProfiles() {
		names = append(names, p.Name)
	}
	return names
}

// Table2Names returns the 12 circuits of the paper's Table 2.
func Table2Names() []string { return bench.Table2Names() }

// LoadBLIF parses a combinational BLIF model.
func LoadBLIF(r io.Reader) (*Circuit, error) {
	n, err := logic.ParseBLIF(r)
	if err != nil {
		return nil, err
	}
	return &Circuit{net: n}, nil
}

// WriteBLIF writes the circuit as BLIF.
func (c *Circuit) WriteBLIF(w io.Writer) error { return logic.WriteBLIF(w, c.net) }

// Name returns the circuit name.
func (c *Circuit) Name() string { return c.net.Name }

// Clone returns a deep, structurally identical copy of the circuit (node
// IDs and orderings preserved, so flows over a clone are byte-identical to
// flows over the original). Clones isolate concurrent pipeline runs that
// would otherwise share one network.
func (c *Circuit) Clone() *Circuit { return &Circuit{net: c.net.Clone()} }

// Stats describes a circuit.
type Stats struct {
	PIs, POs, Nodes, Literals, Depth int
}

// Stats summarizes the circuit.
func (c *Circuit) Stats() Stats {
	s := c.net.Stat()
	return Stats{PIs: s.PIs, POs: s.POs, Nodes: s.Logic, Literals: s.Literals, Depth: s.Depth}
}

// Eval simulates the circuit.
func (c *Circuit) Eval(in map[string]bool) (map[string]bool, error) { return c.net.Eval(in) }

// InputNames returns the primary input names.
func (c *Circuit) InputNames() []string {
	var names []string
	for _, pi := range c.net.PIs {
		names = append(names, c.net.Nodes[pi].Name)
	}
	return names
}

// Mapper selects the technology mapper.
type Mapper int

const (
	// MapperLily is the paper's layout-driven mapper.
	MapperLily Mapper = iota
	// MapperMIS is the MIS 2.1 baseline (layout-blind).
	MapperMIS
)

// mapperNames also takes "mis", the short spelling lilymap and lilyd
// have always accepted for the baseline.
var mapperNames = enumNames[Mapper]{kind: "mapper", names: []string{"lily", "mis2.1"},
	alias: map[string]Mapper{"mis": MapperMIS}}

func (m Mapper) String() string { return mapperNames.name(m) }

// ParseMapper maps the CLI/API spelling of a mapper to its value; the
// empty string is MapperLily.
func ParseMapper(s string) (Mapper, error) { return mapperNames.parse(s) }

// Objective selects the optimization target.
type Objective int

const (
	// ObjectiveArea minimizes layout area (Table 1).
	ObjectiveArea Objective = iota
	// ObjectiveDelay minimizes the longest path delay (Table 2).
	ObjectiveDelay
)

var objectiveNames = enumNames[Objective]{kind: "objective", names: []string{"area", "delay"}}

func (o Objective) String() string { return objectiveNames.name(o) }

// ParseObjective maps the CLI/API spelling of an objective to its value;
// the empty string is ObjectiveArea.
func ParseObjective(s string) (Objective, error) { return objectiveNames.parse(s) }

// TechnologyTarget selects the implementation technology of the mapped
// netlist: the standard-cell library (the paper's flow) or K-input LUTs
// chosen by K-feasible cut enumeration on the same layout-driven
// covering engine. LUT targets require MapperLily.
type TechnologyTarget int

const (
	// TargetASIC maps onto the standard-cell library (default).
	TargetASIC TechnologyTarget = iota
	// TargetLUT4 maps onto 4-input LUTs.
	TargetLUT4
	// TargetLUT6 maps onto 6-input LUTs.
	TargetLUT6
)

var targetNames = enumNames[TechnologyTarget]{kind: "target", names: []string{"asic", "lut4", "lut6"}}

func (t TechnologyTarget) String() string { return targetNames.name(t) }

// ParseTechnologyTarget maps the CLI/API spelling of a target to its
// value; the empty string is TargetASIC. The error lists the accepted
// values, so the lilyd/tables/lilymap flags and the HTTP 400 path share
// one message.
func ParseTechnologyTarget(s string) (TechnologyTarget, error) { return targetNames.parse(s) }

// LibraryChoice selects the target cell library.
type LibraryChoice int

const (
	// LibraryBig has gates up to 6 inputs (the paper's main setting).
	LibraryBig LibraryChoice = iota
	// LibraryTiny has gates up to 3 inputs (§5 discussion).
	LibraryTiny
)

var libraryNames = enumNames[LibraryChoice]{kind: "library", names: []string{"big", "tiny"}}

func (l LibraryChoice) String() string { return libraryNames.name(l) }

// ParseLibraryChoice maps the CLI/API spelling of a library to its value;
// the empty string is LibraryBig.
func ParseLibraryChoice(s string) (LibraryChoice, error) { return libraryNames.parse(s) }

// PlacementUpdate selects Lily's dynamic position update rule (§3.2).
//
// PlacementUpdate and WireEstimator deliberately have no String method:
// the engine's request digest hashes the %+v rendering of FlowOptions,
// which prints these two as integers.
type PlacementUpdate int

const (
	// UpdateCMOfFans positions a match at the center of mass of its
	// fanin/fanout rectangles (paper's experimental setting).
	UpdateCMOfFans PlacementUpdate = iota
	// UpdateCMOfMerged positions a match at the center of mass of the
	// nodes it covers.
	UpdateCMOfMerged
	// UpdateMedianFans uses the Manhattan-optimal median point.
	UpdateMedianFans
)

var updateNames = enumNames[PlacementUpdate]{kind: "update rule", names: []string{"cm-of-fans", "cm-of-merged", "median"}}

// ParsePlacementUpdate maps the CLI spelling of an update rule to its
// value; the empty string is UpdateCMOfFans.
func ParsePlacementUpdate(s string) (PlacementUpdate, error) { return updateNames.parse(s) }

// WireEstimator selects the net-length model (§3.4).
type WireEstimator int

const (
	// WireHPWLSteiner uses half-perimeter × Chung–Hwang ratio.
	WireHPWLSteiner WireEstimator = iota
	// WireSpanningTree uses a rectilinear spanning tree.
	WireSpanningTree
)

var estimatorNames = enumNames[WireEstimator]{kind: "estimator", names: []string{"hpwl", "rmst"}}

// ParseWireEstimator maps the CLI spelling of a wire estimator to its
// value; the empty string is WireHPWLSteiner.
func ParseWireEstimator(s string) (WireEstimator, error) { return estimatorNames.parse(s) }

// enumNames is the one spelling table of an option enum: names[v] is the
// canonical spelling of value v, which String prints and Parse accepts
// along with the aliases and the empty string (the zero value).
type enumNames[E ~int] struct {
	kind  string
	names []string
	alias map[string]E
}

func (t enumNames[E]) valid(v E) bool { return v >= 0 && int(v) < len(t.names) }

func (t enumNames[E]) name(v E) string {
	if !t.valid(v) {
		return fmt.Sprintf("%s(%d)", t.kind, int(v))
	}
	return t.names[v]
}

func (t enumNames[E]) parse(s string) (E, error) {
	if s == "" {
		return 0, nil
	}
	for v, n := range t.names {
		if s == n {
			return E(v), nil
		}
	}
	if v, ok := t.alias[s]; ok {
		return v, nil
	}
	want := make([]string, len(t.names))
	for i, n := range t.names {
		want[i] = strconv.Quote(n)
	}
	last := len(want) - 1
	list := strings.Join(want[:last], ", ")
	if last > 1 {
		list += ","
	}
	list += " or " + want[last]
	return 0, fmt.Errorf("unknown %s %q (want %s)", t.kind, s, list)
}

// check rejects a value outside the table, which no spelling produces.
func (t enumNames[E]) check(v E) error {
	if !t.valid(v) {
		return fmt.Errorf("unknown %s %d", t.kind, int(v))
	}
	return nil
}

// FlowOptions configures a full synthesis → layout run.
type FlowOptions struct {
	Mapper    Mapper
	Objective Objective
	Library   LibraryChoice
	// Target selects the implementation technology: TargetASIC (default)
	// covers with library gates, TargetLUT4/TargetLUT6 with K-input LUTs
	// (MapperLily only). Semantically significant: the engine's request
	// digest includes it, so different targets never share a cache entry.
	Target TechnologyTarget
	// WireWeight is Lily's λ on the routing-area cost term (default 1).
	WireWeight float64
	// Update is Lily's placement-update rule.
	Update PlacementUpdate
	// Estimator is Lily's wiring model.
	Estimator WireEstimator
	// DisableConeOrdering turns off the §3.5 cone ordering (ablation).
	DisableConeOrdering bool
	// ReplaceEvery re-runs global placement on the partially mapped
	// network after every N cones (§3.2); 0 disables.
	ReplaceEvery int
	// NaivePads skips connectivity-driven pad assignment and leaves pads
	// spread uniformly (§5 ablation: pad placement quality bounds Lily's
	// achievable wire reduction).
	NaivePads bool
	// TwoPassDelay enables the MIS 2.2-style load-recording preprocessing
	// in Lily's delay mode (§6): map once, record realized loads, remap.
	TwoPassDelay bool
	// RePlaceMapped discards Lily's constructive cell positions and lets
	// the backend run a fresh global placement of the mapped netlist
	// (ablation: how much of Lily's win is netlist structure vs. seeds).
	RePlaceMapped bool
	// AutoTune implements the paper's §5 remedy for misleading wire
	// estimates ("we could repeat the mapping with reduced wire cost
	// weight to obtain better solutions") as a small portfolio: the Lily
	// flow is run with the default setting, with a fresh backend
	// placement, with periodic re-placement, and with a reduced λ, and
	// the best measured outcome (delay or chip area, per the objective)
	// is returned. Only affects MapperLily.
	AutoTune bool
	// TreeMode restricts the MIS baseline to DAGON tree covering.
	TreeMode bool
	// VerifyEquivalence checks the mapped netlist against the source
	// circuit — formally with BDDs, falling back to randomized simulation
	// when the formal engine's node budget is exceeded — and fails the
	// flow on any mismatch.
	VerifyEquivalence bool
	// FanoutOptimize enables the buffer-tree postprocessing pass the
	// paper lists as future work (§5): after mapping, nets with more
	// than MaxFanout sinks are split by spatially clustered buffer trees.
	FanoutOptimize bool
	// MaxFanout bounds driver fanout when FanoutOptimize is on
	// (default 6).
	MaxFanout int
	// AnnealPlacement enables simulated-annealing refinement in the
	// detailed placer (closer to the paper's TimberWolf backend).
	AnnealPlacement bool
	// ClockPeriodNS, when positive, adds a slack analysis against this
	// clock period to the result (WorstSlackNS, ViolatingCells).
	ClockPeriodNS float64
	// PreOptimize runs the technology-independent optimization phase
	// (constant propagation, cover simplification, common-cube
	// extraction, low-value elimination) on a copy of the circuit before
	// premapping — the MIS step the paper's pipeline consumes upstream.
	PreOptimize bool
	// LayoutDrivenDecomposition premaps with spatially ordered
	// decomposition trees (Fig 1.1b): the source network is placed first
	// and each node's literals enter its NAND2/INV tree grouped by
	// placement proximity, preserving the mapper's option to split large
	// matches along spatial cluster boundaries.
	LayoutDrivenDecomposition bool
	// Deprecated: ignored; removed with the next benchmark PR.
	Parallelism int
}

// Normalize validates the options and returns their canonical form. It is
// the one definition of the flow's defaults and of which settings the
// pipeline treats as equivalent: every pipeline entry point runs it
// first, and the engine's cache keys on its result, so options with equal
// canonical forms produce identical bytes. Normalize is idempotent and
// zeroes the ignored Parallelism field.
func (opt FlowOptions) Normalize() (FlowOptions, error) {
	for _, err := range []error{
		mapperNames.check(opt.Mapper),
		objectiveNames.check(opt.Objective),
		libraryNames.check(opt.Library),
		targetNames.check(opt.Target),
		updateNames.check(opt.Update),
		estimatorNames.check(opt.Estimator),
	} {
		if err != nil {
			return FlowOptions{}, err
		}
	}
	if opt.Target != TargetASIC && opt.Mapper != MapperLily {
		return FlowOptions{}, fmt.Errorf("target %q requires the lily mapper", opt.Target.String())
	}
	if !finiteNonNegative(opt.WireWeight) {
		return FlowOptions{}, fmt.Errorf("wire weight must be finite and >= 0 (got %g)", opt.WireWeight)
	}
	if !finiteNonNegative(opt.ClockPeriodNS) {
		return FlowOptions{}, fmt.Errorf("clock period must be finite and >= 0 (got %g)", opt.ClockPeriodNS)
	}

	opt.Parallelism = 0
	if opt.WireWeight == 0 {
		opt.WireWeight = 1
	}
	if !opt.FanoutOptimize {
		opt.MaxFanout = 0 // read only by fanout optimization
	} else if opt.MaxFanout < 2 {
		opt.MaxFanout = fanout.DefaultOptions().MaxFanout
	}
	if opt.Mapper != MapperLily {
		// Knobs only the Lily flow reads.
		opt.AutoTune = false
		opt.WireWeight = 1
		opt.Update = UpdateCMOfFans
		opt.Estimator = WireHPWLSteiner
		opt.DisableConeOrdering = false
		opt.ReplaceEvery = 0
		opt.NaivePads = false
		opt.TwoPassDelay = false
	}
	if opt.Mapper != MapperMIS {
		opt.TreeMode = false // MIS-only knob
	}
	return opt, nil
}

func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// FlowResult reports a completed pipeline run with the paper's metrics.
type FlowResult struct {
	Circuit   string
	Mapper    Mapper
	Objective Objective
	// Target is the implementation technology the run mapped onto.
	Target TechnologyTarget

	// Gates is the mapped cell count.
	Gates int
	// GateHistogram counts cells per library gate.
	GateHistogram map[string]int
	// ActiveAreaMM2 is the summed gate area (Table 1 "inst area").
	ActiveAreaMM2 float64
	// ChipAreaMM2 is the final die area after the channel-routing model
	// (Table 1 "chip area").
	ChipAreaMM2 float64
	// WirelengthMM is the total routed interconnect length (Table 1 "WL").
	WirelengthMM float64
	// DelayNS is the longest path delay including wiring (Table 2).
	DelayNS float64
	// CriticalPath lists the gate names along the critical path.
	CriticalPath []string
	// Rows and PeakChannelDensity describe the layout.
	Rows                int
	PeakChannelDensity  int
	SubjectNodes        int // inchoate NAND2/INV node count
	LilyReincarnations  int // logic duplication events (Lily only)
	LilyConesProcessed  int
	BuffersInserted     int     // fanout-optimization buffers (if enabled)
	WorstSlackNS        float64 // against ClockPeriodNS (when set)
	ViolatingCells      int     // cells with negative slack (when set)
	EstimatorDivergence float64 // |constructive - routed| / routed wirelength (Lily only)
	// VerifyMethod records how VerifyEquivalence reached its verdict:
	// "compositional" (proved cone by cone through the subject graph),
	// "bdd" (proved by whole-circuit BDDs, where a local check failed or
	// PreOptimize ran) or, with PreOptimize only, "simulation" (sampled
	// after the BDD budget ran out). Empty when verification is off.
	VerifyMethod string
}

func (r *FlowResult) String() string {
	target := ""
	if r.Target != TargetASIC {
		target = "@" + r.Target.String()
	}
	return fmt.Sprintf("%s/%s/%s%s: gates=%d inst=%.3fmm² chip=%.3fmm² wl=%.2fmm delay=%.2fns",
		r.Circuit, r.Mapper, r.Objective, target, r.Gates, r.ActiveAreaMM2, r.ChipAreaMM2,
		r.WirelengthMM, r.DelayNS)
}

// RunFlow executes one full pipeline: premap → (global place) → map →
// detailed place → route model → timing.
func RunFlow(c *Circuit, opt FlowOptions) (*FlowResult, error) {
	return RunFlowContext(context.Background(), c, opt)
}

// RunFlowContext is RunFlow with cancellation: the long-running phases
// (global placement iterations, Lily's per-cone mapping loop) poll ctx and
// abort promptly with its error when it is cancelled or times out, so
// callers — notably the concurrent flow engine — can bound and cancel
// in-flight pipeline runs.
func RunFlowContext(ctx context.Context, c *Circuit, opt FlowOptions) (*FlowResult, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return nil, fmt.Errorf("lily: %w", err)
	}
	if opt.AutoTune {
		return runPortfolio(ctx, c, opt)
	}
	return runFlowOnce(ctx, c, opt)
}

// runPortfolio tries the Lily flow under a handful of §5-inspired
// configurations concurrently and keeps the best measured result. A
// failing variant is skipped rather than aborting the portfolio; the
// portfolio fails only when every variant fails. Each variant runs on its
// own clone of the circuit, and the winner is chosen by a deterministic
// in-order scan, so the outcome is identical to the historical sequential
// evaluation.
func runPortfolio(ctx context.Context, c *Circuit, opt FlowOptions) (*FlowResult, error) {
	base := opt
	base.AutoTune = false
	type variantDef struct {
		name string
		mod  func(FlowOptions) FlowOptions
	}
	variants := []variantDef{
		{"default", func(o FlowOptions) FlowOptions { return o }},
		{"replace-mapped", func(o FlowOptions) FlowOptions { o.RePlaceMapped = true; return o }},
		{"replace-every-10", func(o FlowOptions) FlowOptions { o.ReplaceEvery = 10; return o }},
		{"wire-weight-0.5", func(o FlowOptions) FlowOptions { o.WireWeight = 0.5; return o }},
	}
	ctx, pspan := obs.StartSpan(ctx, "portfolio")
	defer pspan.End()
	results := make([]*FlowResult, len(variants))
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for i, v := range variants {
		wg.Add(1)
		// One child span per variant — losers included, so a trace shows
		// what every arm of the portfolio cost.
		vctx, vspan := obs.StartSpan(ctx, "variant")
		vspan.SetInt("index", int64(i))
		vspan.SetStr("config", v.name)
		go func(i int, vopt FlowOptions, vctx context.Context, vspan *obs.Span) {
			defer wg.Done()
			defer vspan.End()
			defer func() {
				if r := recover(); r != nil {
					// Keep the goroutine stack: without it a portfolio
					// panic is undiagnosable (the recover site is here,
					// not at the fault).
					stack := debug.Stack()
					errs[i] = fmt.Errorf("lily: portfolio variant %d panicked: %v\n%s", i, r, stack)
					vspan.SetStr("stack", string(stack))
					vspan.SetError(errs[i])
				}
			}()
			results[i], errs[i] = runFlowOnce(vctx, c.Clone(), vopt)
			vspan.SetError(errs[i])
		}(i, v.mod(base), vctx, vspan)
	}
	wg.Wait()
	best := -1
	for i, res := range results {
		if errs[i] != nil || res == nil {
			continue
		}
		if best < 0 || betterResult(res, results[best], opt.Objective) {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("lily: all portfolio variants failed: %w", errors.Join(errs...))
	}
	pspan.SetInt("winner", int64(best))
	pspan.SetStr("winner_config", variants[best].name)
	return results[best], nil
}

func betterResult(a, b *FlowResult, o Objective) bool {
	if o == ObjectiveDelay {
		return a.DelayNS < b.DelayNS
	}
	return a.ChipAreaMM2 < b.ChipAreaMM2
}

// SVGOptions controls layout rendering (see RenderLayoutSVG).
type SVGOptions struct {
	// Scale is pixels per µm (default 0.25).
	Scale float64
	// DrawNets renders spanning trees for the longest nets.
	DrawNets bool
	// MaxNets caps the number of nets drawn; 0 draws all when DrawNets.
	MaxNets int
}

// RenderLayoutSVG runs a pipeline and writes the finished layout as an SVG
// image to w, returning the flow metrics.
func RenderLayoutSVG(c *Circuit, opt FlowOptions, w io.Writer, svgOpt SVGOptions) (*FlowResult, error) {
	return RenderLayoutSVGContext(context.Background(), c, opt, w, svgOpt)
}

// RenderLayoutSVGContext is RenderLayoutSVG with cancellation (see
// RunFlowContext).
func RenderLayoutSVGContext(ctx context.Context, c *Circuit, opt FlowOptions, w io.Writer, svgOpt SVGOptions) (*FlowResult, error) {
	res, lres, err := runPipeline(ctx, c, opt)
	if err != nil {
		return nil, err
	}
	if err := layout.WriteSVG(w, lres, layout.SVGOptions{
		Scale: svgOpt.Scale, DrawNets: svgOpt.DrawNets, MaxNets: svgOpt.MaxNets,
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// WriteMappedBLIF runs a pipeline and writes the mapped, placed netlist as
// SIS-style .gate BLIF (with placement attached as #@ directives), so
// external tools can consume the result.
func WriteMappedBLIF(c *Circuit, opt FlowOptions, w io.Writer) (*FlowResult, error) {
	return WriteMappedBLIFContext(context.Background(), c, opt, w)
}

// WriteMappedBLIFContext is WriteMappedBLIF with cancellation (see
// RunFlowContext), for parity with the other pipeline entry points.
func WriteMappedBLIFContext(ctx context.Context, c *Circuit, opt FlowOptions, w io.Writer) (*FlowResult, error) {
	res, lres, err := runPipeline(ctx, c, opt)
	if err != nil {
		return nil, err
	}
	if err := netlist.WriteBLIF(w, lres.Netlist); err != nil {
		return nil, err
	}
	return res, nil
}

func runFlowOnce(ctx context.Context, c *Circuit, opt FlowOptions) (*FlowResult, error) {
	res, _, err := runPipeline(ctx, c, opt)
	return res, err
}

func runPipeline(ctx context.Context, c *Circuit, opt FlowOptions) (*FlowResult, *layout.Result, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return nil, nil, fmt.Errorf("lily: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	lib := libraries[opt.Library]()
	// original is the caller's network: verification checks the mapping
	// against it, not against the optimized copy.
	original := c.net
	if opt.PreOptimize {
		// Optimize a copy so the caller's Circuit is untouched.
		var srcNet *logic.Network
		if err := phase(ctx, "preopt", func(context.Context, *obs.Span) error {
			srcNet = c.net.Clone()
			_, err := netopt.Optimize(srcNet)
			return err
		}); err != nil {
			return nil, nil, err
		}
		c = &Circuit{net: srcNet}
	}

	var pre *decomp.Result
	if err := phase(ctx, "premap", func(ctx context.Context, sp *obs.Span) (err error) {
		if opt.LayoutDrivenDecomposition {
			pre, err = placedPremap(ctx, c.net, lib)
		} else {
			pre, err = decomp.Premap(c.net)
		}
		if err != nil {
			return err
		}
		if sp.Enabled() {
			sp.SetInt("subject_nodes", int64(pre.Inchoate.NumLogic()))
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	sub := pre.Inchoate
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	var nl *netlist.Netlist
	var lilyStats core.LifecycleStats
	switch opt.Mapper {
	case MapperLily:
		copt := core.DefaultOptions(coreModes[opt.Objective])
		copt.Target = coreTargets[opt.Target]
		copt.WireWeight = opt.WireWeight
		copt.Update = coreUpdates[opt.Update]
		copt.WireModel = wireModels[opt.Estimator]
		copt.OrderCones = !opt.DisableConeOrdering
		copt.ReplaceEvery = opt.ReplaceEvery
		copt.Place.NaivePads = opt.NaivePads
		copt.TwoPassDelay = opt.TwoPassDelay
		res, err := core.MapContext(ctx, sub, lib, copt)
		if err != nil {
			return nil, nil, err
		}
		nl = res.Netlist
		lilyStats = res.Stats
	case MapperMIS:
		// MIS covers without placement feedback; its DP is still the
		// cover phase of the pipeline.
		if err := phase(ctx, "cover", func(_ context.Context, sp *obs.Span) (err error) {
			sp.SetStr("mapper", "mis2.1")
			mopt := mis.DefaultOptions(misModes[opt.Objective])
			mopt.TreeMode = opt.TreeMode
			nl, err = mis.Map(sub, lib, mopt)
			return err
		}); err != nil {
			return nil, nil, err
		}
	}

	if opt.RePlaceMapped {
		for _, cell := range nl.Cells {
			cell.Pos = geom.Point{}
		}
	}

	var buffersInserted int
	if opt.FanoutOptimize {
		if err := phase(ctx, "fanout", func(_ context.Context, sp *obs.Span) error {
			// Buffer placement needs positions; MIS netlists get their
			// global placement first (the backend would have run it anyway).
			if !layout.HasSeedPositions(nl) {
				if err := layout.GlobalPlace(nl, lib, place.DefaultConfig()); err != nil {
					return err
				}
			}
			fopt := fanout.DefaultOptions()
			fopt.MaxFanout = opt.MaxFanout
			fst, err := fanout.Optimize(nl, lib, fopt)
			if err != nil {
				return err
			}
			buffersInserted = fst.BuffersInserted
			sp.SetInt("buffers_inserted", int64(buffersInserted))
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}

	var verifyMethod string
	if opt.VerifyEquivalence {
		if err := phase(ctx, "verify", func(context.Context, *obs.Span) (err error) {
			verifyMethod, err = verifyEquivalent(original, c.net, pre, nl)
			return err
		}); err != nil {
			return nil, nil, err
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	lopt := layout.DefaultOptions()
	lopt.Anneal = opt.AnnealPlacement
	var lres *layout.Result
	if err := phase(ctx, "layout", func(_ context.Context, sp *obs.Span) (err error) {
		if lres, err = layout.Place(nl, lib, lopt); err != nil {
			return err
		}
		if sp.Enabled() {
			sp.SetInt("rows", int64(lres.Rows))
			sp.SetFloat("chip_area_mm2", lres.ChipAreaMM2())
			sp.SetFloat("wirelength_mm", lres.WirelengthMM())
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var tres *timing.Result
	var slackRep *timing.SlackReport
	if err := phase(ctx, "timing", func(_ context.Context, sp *obs.Span) (err error) {
		if tres, err = timing.Analyze(nl, lib, timing.Options{}); err != nil {
			return err
		}
		if opt.ClockPeriodNS > 0 {
			if slackRep, err = timing.Slack(nl, lib, tres, opt.ClockPeriodNS); err != nil {
				return err
			}
		}
		sp.SetFloat("delay_ns", tres.MaxDelay)
		return nil
	}); err != nil {
		return nil, nil, err
	}

	out := &FlowResult{
		Circuit:            c.net.Name,
		Mapper:             opt.Mapper,
		Objective:          opt.Objective,
		Target:             opt.Target,
		Gates:              len(nl.Cells),
		GateHistogram:      nl.Stat().ByGate,
		ActiveAreaMM2:      lres.ActiveAreaMM2(),
		ChipAreaMM2:        lres.ChipAreaMM2(),
		WirelengthMM:       lres.WirelengthMM(),
		DelayNS:            tres.MaxDelay,
		Rows:               lres.Rows,
		SubjectNodes:       sub.NumLogic(),
		LilyReincarnations: lilyStats.Reincarnations,
		LilyConesProcessed: lilyStats.ConesProcessed,
		BuffersInserted:    buffersInserted,
		VerifyMethod:       verifyMethod,
	}
	if slackRep != nil {
		out.WorstSlackNS = slackRep.WorstSlack
		out.ViolatingCells = slackRep.ViolatingCells
	}
	for _, d := range lres.ChannelDensities {
		if d > out.PeakChannelDensity {
			out.PeakChannelDensity = d
		}
	}
	for _, step := range tres.CriticalPath {
		out.CriticalPath = append(out.CriticalPath, step.Name)
	}
	return out, lres, nil
}

// The internal settings of each option value, indexed by the enums
// (runPipeline normalizes first, so every index is in range).
var (
	libraries   = [...]func() *library.Library{LibraryBig: library.Big, LibraryTiny: library.Tiny}
	coreModes   = [...]core.Mode{ObjectiveArea: core.ModeArea, ObjectiveDelay: core.ModeDelay}
	misModes    = [...]mis.Mode{ObjectiveArea: mis.ModeArea, ObjectiveDelay: mis.ModeDelay}
	coreTargets = [...]core.Target{TargetASIC: core.TargetASIC, TargetLUT4: core.TargetLUT4, TargetLUT6: core.TargetLUT6}
	coreUpdates = [...]core.UpdateRule{UpdateCMOfFans: core.CMOfFans, UpdateCMOfMerged: core.CMOfMerged,
		UpdateMedianFans: core.MedianFans}
	wireModels = [...]wire.Model{WireHPWLSteiner: wire.ModelHPWLSteiner, WireSpanningTree: wire.ModelSpanningTree}
)

// phase runs fn as one pipeline phase under a trace span named name. fn
// gets the span's context and the span for its attributes; an error fn
// returns is recorded on the span before the span ends.
func phase(ctx context.Context, name string, fn func(context.Context, *obs.Span) error) error {
	ctx, sp := obs.StartSpan(ctx, name)
	defer sp.End()
	err := fn(ctx, sp)
	sp.SetError(err)
	return err
}

// placedPremap implements the layout-oriented decomposition of Fig 1.1b:
// place the source network (gates approximated by the NAND2 base cell),
// then decompose each node with its literals ordered by recursive spatial
// bipartition of their placed positions.
func placedPremap(ctx context.Context, net *logic.Network, lib *library.Library) (*decomp.Result, error) {
	pr, err := place.GlobalContext(ctx, net, func(logic.NodeID) float64 { return lib.Nand2.Width },
		lib.RowHeight, place.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return decomp.PremapPlaced(net, pr.Pos)
}

// verifyEquivalent checks the mapped netlist nl against the caller's
// network original and returns the method that reached the verdict. nl
// was mapped from src through the premap pre. When src is original, the
// check is equiv.Prove: cone by cone through the subject graph, with the
// monolithic BDD check only where a local check fails, and an error where
// only sampling could decide. When src is an optimized copy, the local
// proof would only cover the optimizer's output, so the whole netlist is
// checked against original by equiv.Check (BDD, with a simulation
// fallback for circuits that blow the node budget).
func verifyEquivalent(original, src *logic.Network, pre *decomp.Result, nl *netlist.Netlist) (string, error) {
	var res *equiv.Result
	var err error
	if src == original {
		res, err = equiv.Prove(src, pre, nl)
	} else {
		res, err = equiv.Check(original, nl, equiv.DefaultOptions())
	}
	if err != nil {
		return "", err
	}
	if !res.Equivalent {
		return "", fmt.Errorf("lily: mapped netlist differs from source at output %q (found by %v, counterexample %v)",
			res.FailingOutput, res.Method, res.Counterexample)
	}
	return res.Method.String(), nil
}

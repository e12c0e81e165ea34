package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"

	"lily"
	"lily/internal/bench"
	"lily/internal/core"
	"lily/internal/decomp"
	"lily/internal/equiv"
	"lily/internal/layout"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/mis"
	"lily/internal/netlist"
	"lily/internal/obs"
	"lily/internal/place"
	"lily/internal/timing"
)

// defaultSeed is the seed the benchmark's documentation and tests use.
const defaultSeed = 1

// seededCircuit names the one circuit each workload generates from the
// seed. It has duke2's size profile (22 inputs, so a BDD proves it) and a
// generator seed derived from the run's seed; every other circuit is a
// pinned benchmark circuit whose mapped output testdata/golden.json holds.
// The seeded circuit is a small share of each workload's work, so its
// variation moves the totals little.
const seededCircuit = "seeded"

// input is one generated circuit, held both as the public API's Circuit
// and as the logic network the composed layer calls consume. Both are
// parsed from the same BLIF text, as a user loading a file would.
type input struct {
	name string
	blif []byte
	circ *lily.Circuit
	net  *logic.Network
}

// makeInput generates the named benchmark circuit (or the seeded circuit
// for seed) and loads it through BLIF, recording the parse in tr.
func makeInput(name string, seed int64, tr *tracer) (*input, error) {
	lookup := name
	if name == seededCircuit {
		lookup = "duke2"
	}
	p, ok := bench.ProfileByName(lookup)
	if !ok {
		return nil, fmt.Errorf("unknown circuit %q", name)
	}
	if name == seededCircuit {
		p.Name, p.Seed = name, 1_000_000+seed
	}
	var buf bytes.Buffer
	if err := logic.WriteBLIF(&buf, bench.Generate(p)); err != nil {
		return nil, fmt.Errorf("%s: write BLIF: %w", name, err)
	}
	in := &input{name: name, blif: buf.Bytes()}
	var err error
	if err := tr.do("logic.parse", -1, func() error {
		in.net, err = logic.ParseBLIF(bytes.NewReader(in.blif))
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: parse BLIF: %w", name, err)
	}
	if in.circ, err = lily.LoadBLIF(bytes.NewReader(in.blif)); err != nil {
		return nil, fmt.Errorf("%s: load BLIF: %w", name, err)
	}
	return in, nil
}

// quality holds the paper's columns for one flow.
type quality struct {
	Gates        int
	ChipAreaMM2  float64
	WirelengthMM float64
	DelayNS      float64
}

func (q *quality) add(o quality) {
	q.Gates += o.Gates
	q.ChipAreaMM2 += o.ChipAreaMM2
	q.WirelengthMM += o.WirelengthMM
	q.DelayNS += o.DelayNS
}

func qualityOf(r *lily.FlowResult) quality {
	return quality{Gates: r.Gates, ChipAreaMM2: r.ChipAreaMM2, WirelengthMM: r.WirelengthMM, DelayNS: r.DelayNS}
}

// layerStats accumulates the per-layer counts of a traced pass and the
// equivalence checks of a run.
type layerStats struct {
	coreWireEvals, cutWireEvals uint64
	cgIterations                uint64
	cones, reincarnations       int
	rows, subjectNodes          int
	emitBytes                   int
	// Equivalence checks: in-flow verification and post-run checks.
	checks, proved, bddPeak int
}

func (ls *layerStats) recordCheck(r *equiv.Result) {
	ls.checks++
	if r.Method == equiv.MethodBDD {
		ls.proved++
	}
	ls.bddPeak = max(ls.bddPeak, r.BDDNodes)
}

// runPublic maps in through the public API, as a library user would.
func runPublic(in *input, opt lily.FlowOptions, w io.Writer) (quality, error) {
	res, err := lily.WriteMappedBLIF(in.circ, opt, w)
	if err != nil {
		return quality{}, err
	}
	return qualityOf(res), nil
}

// runComposed performs the same flow as lily.WriteMappedBLIF by calling
// each layer's public function in the order the library's pipeline does,
// with a span around every call. It supports the options the workloads
// use: either mapper and objective, every target, the big library,
// VerifyEquivalence and Parallelism; the rest must be zero.
func runComposed(in *input, opt lily.FlowOptions, w io.Writer, label string, tr *tracer, ls *layerStats) (quality, error) {
	root := tr.begin("flow:"+label, -1)
	defer tr.end(root)
	lib := library.Big()
	fm := obs.RegisterFlowMetrics(obs.NewRegistry())
	ctx := obs.ContextWithFlowMetrics(context.Background(), fm)

	var pre *decomp.Result
	if err := tr.do("decomp.premap", root, func() (err error) {
		pre, err = decomp.Premap(in.net)
		return err
	}); err != nil {
		return quality{}, err
	}
	sub := pre.Inchoate
	ls.subjectNodes += sub.NumLogic()

	var nl *netlist.Netlist
	switch opt.Mapper {
	case lily.MapperLily:
		copt := core.DefaultOptions(core.ModeArea)
		if opt.Objective == lily.ObjectiveDelay {
			copt.Mode = core.ModeDelay
		}
		copt.Target = coreTarget(opt.Target)
		copt.Parallelism = opt.Parallelism
		copt.Place.Parallelism = opt.Parallelism
		var pl *place.Result
		if err := tr.do("place.global", root, func() (err error) {
			pl, err = place.GlobalContext(ctx, sub, baseWidth(sub, lib), lib.RowHeight, copt.Place)
			return err
		}); err != nil {
			return quality{}, err
		}
		cover := "core.cover"
		if opt.Target != lily.TargetASIC {
			cover = "cut.cover"
		}
		evals := fm.WireEvals.Value()
		var res *core.Result
		if err := tr.do(cover, root, func() (err error) {
			res, err = core.MapPlacedContext(ctx, sub, lib, pl, copt)
			return err
		}); err != nil {
			return quality{}, err
		}
		if opt.Target == lily.TargetASIC {
			ls.coreWireEvals += fm.WireEvals.Value() - evals
		} else {
			ls.cutWireEvals += fm.WireEvals.Value() - evals
		}
		ls.cones += res.Stats.ConesProcessed
		ls.reincarnations += res.Stats.Reincarnations
		nl = res.Netlist
	case lily.MapperMIS:
		mopt := mis.DefaultOptions(mis.ModeArea)
		if opt.Objective == lily.ObjectiveDelay {
			mopt = mis.DefaultOptions(mis.ModeDelay)
		}
		if err := tr.do("mis.cover", root, func() (err error) {
			nl, err = mis.Map(sub, lib, mopt)
			return err
		}); err != nil {
			return quality{}, err
		}
	default:
		return quality{}, fmt.Errorf("unknown mapper %d", opt.Mapper)
	}

	if opt.VerifyEquivalence {
		if err := tr.do("equiv.verify", root, func() error {
			r, err := equiv.Check(in.net, nl, equiv.DefaultOptions())
			if err != nil {
				return err
			}
			ls.recordCheck(r)
			if !r.Equivalent {
				return fmt.Errorf("mapped netlist differs from source at output %q", r.FailingOutput)
			}
			return nil
		}); err != nil {
			return quality{}, err
		}
	}

	lopt := layout.DefaultOptions()
	lopt.Place.Parallelism = opt.Parallelism
	if !layout.HasSeedPositions(nl) {
		// layout.Place would run this global placement itself; calling it
		// first attributes it to the placement layer.
		if err := tr.do("place.global", root, func() error {
			return layout.GlobalPlace(nl, lib, lopt.Place)
		}); err != nil {
			return quality{}, err
		}
	}
	var lres *layout.Result
	if err := tr.do("layout.backend", root, func() (err error) {
		lres, err = layout.Place(nl, lib, lopt)
		return err
	}); err != nil {
		return quality{}, err
	}
	ls.rows += lres.Rows
	var tres *timing.Result
	if err := tr.do("timing.sta", root, func() (err error) {
		tres, err = timing.Analyze(nl, lib, timing.DefaultOptions())
		return err
	}); err != nil {
		return quality{}, err
	}
	cw := &countingWriter{w: w}
	if err := tr.do("netlist.emit", root, func() error {
		return netlist.WriteBLIF(cw, lres.Netlist)
	}); err != nil {
		return quality{}, err
	}
	ls.emitBytes += cw.n
	ls.cgIterations += fm.CGIterations.Value()
	return quality{Gates: len(nl.Cells), ChipAreaMM2: lres.ChipAreaMM2(),
		WirelengthMM: lres.WirelengthMM(), DelayNS: tres.MaxDelay}, nil
}

func coreTarget(t lily.TechnologyTarget) core.Target {
	switch t {
	case lily.TargetLUT4:
		return core.TargetLUT4
	case lily.TargetLUT6:
		return core.TargetLUT6
	default:
		return core.TargetASIC
	}
}

// baseWidth is the inchoate cell-width function the mapper's seed placement
// uses: NAND2 for two-input subject nodes, INV otherwise.
func baseWidth(sub *logic.Network, lib *library.Library) func(logic.NodeID) float64 {
	return func(id logic.NodeID) float64 {
		if nd := sub.Node(id); nd != nil && len(nd.Fanins) == 2 {
			return lib.Nand2.Width
		}
		return lib.Inv.Width
	}
}

type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// checkEquivalent parses a mapped BLIF and checks it against its source:
// by BDD within a 200k-node budget, else by 256 random vectors. The small
// budget keeps the check cheap; the result records which method decided.
func checkEquivalent(src *logic.Network, mapped []byte, ls *layerStats) error {
	lib, err := libraryFor(mapped)
	if err != nil {
		return err
	}
	nl, err := netlist.ParseBLIF(bytes.NewReader(mapped), lib)
	if err != nil {
		return fmt.Errorf("parse mapped BLIF: %w", err)
	}
	r, err := equiv.Check(src, nl, equiv.Options{MaxBDDNodes: 200_000, SimVectors: 256, Seed: 1})
	if err != nil {
		return err
	}
	ls.recordCheck(r)
	if !r.Equivalent {
		return fmt.Errorf("not equivalent at output %q (%v)", r.FailingOutput, r.Method)
	}
	return nil
}

// libraryFor returns the big library plus every LUT cell the mapped BLIF
// instantiates. LUT cells are synthesized per function while mapping; the
// name "lut<k>_<hex truth table>" carries the function, which is all an
// equivalence check needs.
func libraryFor(mapped []byte) (*library.Library, error) {
	lib := library.Big()
	seen := make(map[string]bool)
	for _, line := range strings.Split(string(mapped), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != ".gate" || !strings.HasPrefix(f[1], "lut") || seen[f[1]] {
			continue
		}
		seen[f[1]] = true
		var k int
		var tt uint64
		if _, err := fmt.Sscanf(f[1], "lut%d_%x", &k, &tt); err != nil || k < 1 || k > 6 {
			return nil, fmt.Errorf("bad LUT cell name %q", f[1])
		}
		cover := logic.NewSOP(k)
		for row := 0; row < 1<<k; row++ {
			if tt>>row&1 == 0 {
				continue
			}
			cube := make(logic.Cube, k)
			for i := range cube {
				cube[i] = logic.LitNeg
				if row>>i&1 == 1 {
					cube[i] = logic.LitPos
				}
			}
			cover.AddCube(cube)
		}
		lib.Gates = append(lib.Gates, library.NewLUT(f[1], cover, 6))
	}
	return lib, nil
}

func digest(b []byte) [32]byte { return sha256.Sum256(b) }

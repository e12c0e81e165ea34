package core

import (
	"maps"
	"math/rand"
	"strings"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/netlist"
	"lily/internal/place"
	"lily/internal/wire"
)

func subjectFor(t *testing.T, name string) (*logic.Network, *logic.Network) {
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
	return src, res.Inchoate
}

func checkEquivalent(t *testing.T, src *logic.Network, nl *netlist.Netlist, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < trials; k++ {
		in := make(map[string]bool)
		for _, pi := range src.PIs {
			in[src.Nodes[pi].Name] = rng.Intn(2) == 1
		}
		want, err := src.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nl.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for name := range want {
			if want[name] != got[name] {
				t.Fatalf("trial %d output %s: src %v, mapped %v", k, name, want[name], got[name])
			}
		}
	}
}

func TestLilyAreaEquivalence(t *testing.T) {
	for _, name := range []string{"misex1", "b9", "C432"} {
		src, sub := subjectFor(t, name)
		res, err := Map(sub, library.Big(), DefaultOptions(ModeArea))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkEquivalent(t, src, res.Netlist, 16, 21)
	}
}

func TestLilyDelayEquivalence(t *testing.T) {
	src, sub := subjectFor(t, "C432")
	res, err := Map(sub, library.Big(), DefaultOptions(ModeDelay))
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, src, res.Netlist, 16, 22)
}

func TestLilyPositionsInsideDie(t *testing.T) {
	_, sub := subjectFor(t, "C432")
	res, err := Map(sub, library.Big(), DefaultOptions(ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	die := res.Placement.Die
	// Positions derive from centers/medians of rectangles whose corners
	// lie in the die, so they must stay inside it.
	for _, c := range res.Netlist.Cells {
		if !die.Contains(c.Pos) {
			t.Errorf("cell %s at %v outside die %v", c.Name, c.Pos, die)
		}
	}
	for i := range res.Netlist.PIPos {
		if !die.Contains(res.Netlist.PIPos[i]) {
			t.Errorf("PI %s outside die", res.Netlist.PINames[i])
		}
	}
}

func TestLilyLifecycleStats(t *testing.T) {
	_, sub := subjectFor(t, "C432")
	opt := DefaultOptions(ModeArea)
	opt.TraceLifecycle = true
	res, err := Map(sub, library.Big(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Hawks != len(res.Netlist.Cells) {
		t.Errorf("hawks %d != cells %d", res.Stats.Hawks, len(res.Netlist.Cells))
	}
	if res.Stats.ConesProcessed != len(sub.POs) {
		t.Errorf("cones %d != POs %d", res.Stats.ConesProcessed, len(sub.POs))
	}
	if res.Stats.Doves == 0 {
		t.Error("no doves: nothing was merged")
	}
	if len(res.Trace) == 0 {
		t.Fatal("no lifecycle trace")
	}
}

func TestLifecycleTransitionsLegal(t *testing.T) {
	// Every recorded transition must be an arc of the Fig 2.2 automaton;
	// setState errors on illegal arcs, so a successful run with tracing on
	// plus a replay check here covers it.
	_, sub := subjectFor(t, "duke2")
	opt := DefaultOptions(ModeArea)
	opt.TraceLifecycle = true
	res, err := Map(sub, library.Big(), opt)
	if err != nil {
		t.Fatal(err)
	}
	cur := make(map[logic.NodeID]State)
	for _, tr := range res.Trace {
		if got := cur[tr.Node]; got != tr.From {
			t.Fatalf("trace inconsistent at node %d: recorded from %v, actual %v", tr.Node, tr.From, got)
		}
		if !legalTransitions[tr.From][tr.To] {
			t.Fatalf("illegal transition %v->%v", tr.From, tr.To)
		}
		cur[tr.Node] = tr.To
	}
	// Terminal states are hawk or dove only (and nestling for nodes in no
	// final cover — which must not happen).
	for node, st := range cur {
		if st == StateNestling || st == StateEgg {
			t.Errorf("node %d left in state %v", node, st)
		}
	}
}

func TestReincarnationHappens(t *testing.T) {
	// Across the benchmark suite, logic duplication across cones should
	// occur at least once (doves reincarnating).
	total := 0
	for _, name := range []string{"C432", "duke2", "C880"} {
		_, sub := subjectFor(t, name)
		res, err := Map(sub, library.Big(), DefaultOptions(ModeArea))
		if err != nil {
			t.Fatal(err)
		}
		total += res.Stats.Reincarnations
	}
	if total == 0 {
		t.Log("no reincarnations observed; acceptable but unusual")
	}
}

func TestUpdateRules(t *testing.T) {
	src, sub := subjectFor(t, "misex1")
	for _, rule := range []UpdateRule{CMOfFans, CMOfMerged, MedianFans} {
		opt := DefaultOptions(ModeArea)
		opt.Update = rule
		res, err := Map(sub, library.Big(), opt)
		if err != nil {
			t.Fatalf("%v: %v", rule, err)
		}
		checkEquivalent(t, src, res.Netlist, 8, 31)
	}
}

func TestConeOrderingToggle(t *testing.T) {
	src, sub := subjectFor(t, "misex1")
	for _, order := range []bool{true, false} {
		opt := DefaultOptions(ModeArea)
		opt.OrderCones = order
		res, err := Map(sub, library.Big(), opt)
		if err != nil {
			t.Fatalf("order=%v: %v", order, err)
		}
		checkEquivalent(t, src, res.Netlist, 8, 32)
	}
}

func TestWireWeightZeroMatchesAreaOnly(t *testing.T) {
	// λ=0 must degrade gracefully to pure active-area covering; its active
	// area must be <= the λ=1 result's.
	_, sub := subjectFor(t, "C432")
	optZ := DefaultOptions(ModeArea)
	optZ.WireWeight = 0
	rz, err := Map(sub, library.Big(), optZ)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Map(sub, library.Big(), DefaultOptions(ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	if rz.Netlist.Stat().ActiveArea > r1.Netlist.Stat().ActiveArea+1e-6 {
		t.Errorf("λ=0 active area %.0f > λ=1 %.0f",
			rz.Netlist.Stat().ActiveArea, r1.Netlist.Stat().ActiveArea)
	}
}

func TestNegativeWireWeightRejected(t *testing.T) {
	_, sub := subjectFor(t, "misex1")
	opt := DefaultOptions(ModeArea)
	opt.WireWeight = -1
	if _, err := Map(sub, library.Big(), opt); err == nil {
		t.Error("negative wire weight accepted")
	}
}

func TestSpanningTreeWireModel(t *testing.T) {
	src, sub := subjectFor(t, "misex1")
	opt := DefaultOptions(ModeArea)
	opt.WireModel = wire.ModelSpanningTree
	res, err := Map(sub, library.Big(), opt)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, src, res.Netlist, 8, 33)
}

func TestLilyDeterministic(t *testing.T) {
	_, sub := subjectFor(t, "misex1")
	a, err := Map(sub, library.Big(), DefaultOptions(ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Map(sub, library.Big(), DefaultOptions(ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Netlist.Cells) != len(b.Netlist.Cells) {
		t.Fatal("cell counts differ")
	}
	for i := range a.Netlist.Cells {
		ca, cb := a.Netlist.Cells[i], b.Netlist.Cells[i]
		if ca.Name != cb.Name || ca.Gate.Name != cb.Gate.Name || ca.Pos != cb.Pos {
			t.Fatalf("cell %d differs: %v/%v %v vs %v/%v %v",
				i, ca.Name, ca.Gate.Name, ca.Pos, cb.Name, cb.Gate.Name, cb.Pos)
		}
	}
}

func TestReplaceEvery(t *testing.T) {
	src, sub := subjectFor(t, "duke2")
	opt := DefaultOptions(ModeArea)
	opt.ReplaceEvery = 8
	res, err := Map(sub, library.Big(), opt)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, src, res.Netlist, 8, 41)
	if res.Stats.Replacements == 0 {
		t.Error("no re-placements happened")
	}
	// Positions must remain within the original die.
	for _, c := range res.Netlist.Cells {
		if !res.Placement.Die.Contains(c.Pos) {
			t.Errorf("cell %s at %v escaped the die after re-placement", c.Name, c.Pos)
		}
	}
}

func TestReplaceKeepsPads(t *testing.T) {
	_, sub := subjectFor(t, "misex1")
	base, err := Map(sub, library.Big(), DefaultOptions(ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(ModeArea)
	opt.ReplaceEvery = 2
	repl, err := Map(sub, library.Big(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Pad positions are pinned across re-placements: PI positions match
	// the run without re-placement.
	for i := range base.Netlist.PIPos {
		if base.Netlist.PIPos[i] != repl.Netlist.PIPos[i] {
			t.Errorf("PI %s pad moved: %v -> %v", base.Netlist.PINames[i],
				base.Netlist.PIPos[i], repl.Netlist.PIPos[i])
		}
	}
	for i := range base.Netlist.POs {
		if base.Netlist.POs[i].Pad != repl.Netlist.POs[i].Pad {
			t.Errorf("PO %s pad moved", base.Netlist.POs[i].Name)
		}
	}
}

// TestMapPlacedSharedPlacement: callers may share one placement across
// MapPlaced runs, so periodic re-placement must move the run's own copy
// of the positions, while Result.Placement still reports where the run
// left them.
func TestMapPlacedSharedPlacement(t *testing.T) {
	_, sub := subjectFor(t, "duke2")
	lib := library.Big()
	pl, err := place.Global(sub, baseWidth(sub, lib), lib.RowHeight, place.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seed := maps.Clone(pl.Pos)
	opt := DefaultOptions(ModeArea)
	opt.ReplaceEvery = 4
	var blif [2]string
	for i := range blif {
		res, err := MapPlaced(sub, lib, pl, opt)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := netlist.WriteBLIF(&sb, res.Netlist); err != nil {
			t.Fatal(err)
		}
		blif[i] = sb.String()
		if maps.Equal(res.Placement.Pos, seed) {
			t.Fatalf("run %d: Result.Placement does not report the re-placed positions", i)
		}
	}
	if !maps.Equal(pl.Pos, seed) {
		moved := 0
		for id, p := range seed {
			if pl.Pos[id] != p {
				moved++
			}
		}
		t.Fatalf("MapPlaced rewrote %d of the caller's %d positions", moved, len(seed))
	}
	if blif[0] != blif[1] {
		t.Fatalf("two MapPlaced runs on one placement produced different BLIF")
	}
}

func TestTwoPassDelay(t *testing.T) {
	src, sub := subjectFor(t, "C432")
	opt := DefaultOptions(ModeDelay)
	opt.TwoPassDelay = true
	res, err := Map(sub, library.Big(), opt)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, src, res.Netlist, 12, 51)
}

func TestRecordedLoadsPositive(t *testing.T) {
	_, sub := subjectFor(t, "misex1")
	res, err := Map(sub, library.Big(), DefaultOptions(ModeDelay))
	if err != nil {
		t.Fatal(err)
	}
	loads := recordedLoads(sub, library.Big(), res, wire.ModelHPWLSteiner)
	if len(loads) == 0 {
		t.Fatal("no loads recorded")
	}
	for id, cl := range loads {
		if cl < 0 {
			t.Errorf("node %d negative load %v", id, cl)
		}
	}
}

// TestRecordedLoadsMatchFormula pins recordedLoads, which now calls
// timing.NetLoad, bit for bit to the formula it used to spell out: sink
// pin capacitances summed in sink order, then c_h·X + c_v·Y of the net's
// per-axis length under the run's estimator, added as one term.
func TestRecordedLoadsMatchFormula(t *testing.T) {
	lib := library.Big()
	var ws wire.Scratch
	for _, name := range []string{"C432", "C880"} {
		_, sub := subjectFor(t, name)
		for _, model := range []wire.Model{wire.ModelHPWLSteiner, wire.ModelSpanningTree} {
			opt := DefaultOptions(ModeDelay)
			opt.WireModel = model
			res, err := Map(sub, lib, opt)
			if err != nil {
				t.Fatal(err)
			}
			nl := res.Netlist
			want := make(map[logic.NodeID]float64)
			for _, net := range nl.Nets() {
				if net.Driver.IsPI {
					continue
				}
				cl := 0.0
				for _, s := range net.Sinks {
					cl += nl.Cells[s.Cell].Gate.InputCap
				}
				x, y := ws.LengthXY(model, nl.NetPins(net))
				cl += lib.WireCapH*x + lib.WireCapV*y
				if nd := sub.NodeByName(nl.Cells[net.Driver.Index].Name); nd != nil {
					want[nd.ID] = cl
				}
			}
			got := recordedLoads(sub, lib, res, model)
			if len(got) == 0 || !maps.Equal(got, want) {
				t.Errorf("%s/%v: recordedLoads differs from the load formula (%d vs %d entries)",
					name, model, len(got), len(want))
			}
		}
	}
}

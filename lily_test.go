package lily

import (
	"bytes"
	"strings"
	"testing"

	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/mis"
)

func TestGenerateBenchmarkNames(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 15 {
		t.Fatalf("%d benchmarks, want 15", len(names))
	}
	for _, n := range names {
		c, err := GenerateBenchmark(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if c.Name() != n {
			t.Errorf("name %s != %s", c.Name(), n)
		}
	}
	if _, err := GenerateBenchmark("nope"); err == nil {
		t.Error("bogus benchmark accepted")
	}
}

func TestBLIFRoundTripThroughFacade(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := LoadBLIF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]bool{}
	for i, name := range c.InputNames() {
		in[name] = i%2 == 0
	}
	o1, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := c2.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	for k := range o1 {
		if o1[k] != o2[k] {
			t.Fatalf("output %s differs after BLIF round trip", k)
		}
	}
}

func TestRunFlowBothMappersVerified(t *testing.T) {
	c, err := GenerateBenchmark("b9")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mapper{MapperMIS, MapperLily} {
		for _, o := range []Objective{ObjectiveArea, ObjectiveDelay} {
			res, err := RunFlow(c, FlowOptions{Mapper: m, Objective: o, VerifyEquivalence: true})
			if err != nil {
				t.Fatalf("%v/%v: %v", m, o, err)
			}
			if res.Gates == 0 || res.ChipAreaMM2 <= 0 || res.WirelengthMM <= 0 || res.DelayNS <= 0 {
				t.Errorf("%v/%v: degenerate result %+v", m, o, res)
			}
			if res.ChipAreaMM2 <= res.ActiveAreaMM2 {
				t.Errorf("%v/%v: chip area below active area", m, o)
			}
		}
	}
}

func TestHeadlineShapeAggregate(t *testing.T) {
	// The paper's headline: over the suite, Lily's final chip area and
	// interconnect length beat MIS 2.1's. Individual circuits are noisy
	// (the paper's misex1 row is a counterexample in its own Table 1), so
	// assert the aggregate over a three-circuit sample.
	if testing.Short() {
		t.Skip("full flows are slow")
	}
	var misChip, misWL, lilyChip, lilyWL float64
	for _, name := range []string{"duke2", "e64", "apex7"} {
		c, err := GenerateBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := RunFlow(c, FlowOptions{Mapper: MapperMIS})
		if err != nil {
			t.Fatal(err)
		}
		l, err := RunFlow(c, FlowOptions{Mapper: MapperLily})
		if err != nil {
			t.Fatal(err)
		}
		misChip += m.ChipAreaMM2
		misWL += m.WirelengthMM
		lilyChip += l.ChipAreaMM2
		lilyWL += l.WirelengthMM
	}
	if lilyChip >= misChip {
		t.Errorf("Lily chip area %.3f not below MIS %.3f", lilyChip, misChip)
	}
	if lilyWL >= misWL {
		t.Errorf("Lily wirelength %.2f not below MIS %.2f", lilyWL, misWL)
	}
}

func TestTinyVsBigLibrary(t *testing.T) {
	// §5: the tiny library yields many more gates; the big library has
	// smaller active cell area.
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := RunFlow(c, FlowOptions{Mapper: MapperMIS, Library: LibraryTiny})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunFlow(c, FlowOptions{Mapper: MapperMIS, Library: LibraryBig})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Gates <= big.Gates {
		t.Errorf("tiny library gates %d <= big %d", tiny.Gates, big.Gates)
	}
	if tiny.ActiveAreaMM2 <= big.ActiveAreaMM2 {
		t.Errorf("tiny active area %.3f <= big %.3f", tiny.ActiveAreaMM2, big.ActiveAreaMM2)
	}
}

func TestFlowOptionVariants(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	variants := []FlowOptions{
		{Mapper: MapperLily, Update: UpdateCMOfMerged},
		{Mapper: MapperLily, Update: UpdateMedianFans},
		{Mapper: MapperLily, Estimator: WireSpanningTree},
		{Mapper: MapperLily, DisableConeOrdering: true},
		{Mapper: MapperLily, WireWeight: 0.25},
		{Mapper: MapperLily, LayoutDrivenDecomposition: true},
		{Mapper: MapperMIS, TreeMode: true},
	}
	for i, opt := range variants {
		opt.VerifyEquivalence = true
		if _, err := RunFlow(c, opt); err != nil {
			t.Errorf("variant %d: %v", i, err)
		}
	}
}

func TestLilyStatsReported(t *testing.T) {
	c, err := GenerateBenchmark("b9")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFlow(c, FlowOptions{Mapper: MapperLily})
	if err != nil {
		t.Fatal(err)
	}
	if res.LilyConesProcessed != c.Stats().POs {
		t.Errorf("cones %d != POs %d", res.LilyConesProcessed, c.Stats().POs)
	}
	if res.SubjectNodes == 0 {
		t.Error("subject size missing")
	}
	if len(res.CriticalPath) < 2 {
		t.Error("critical path missing")
	}
	if !strings.Contains(res.String(), "b9") {
		t.Error("String() misses circuit name")
	}
}

func TestLoadBLIFErrors(t *testing.T) {
	if _, err := LoadBLIF(strings.NewReader(".model x\n.latch a b\n.end")); err == nil {
		t.Error("latch accepted")
	}
}

func TestFanoutOptimizeFlow(t *testing.T) {
	c, err := GenerateBenchmark("C880")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunFlow(c, FlowOptions{Mapper: MapperLily, Objective: ObjectiveDelay})
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := RunFlow(c, FlowOptions{
		Mapper: MapperLily, Objective: ObjectiveDelay,
		FanoutOptimize: true, VerifyEquivalence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if buffered.BuffersInserted == 0 {
		t.Skip("no high-fanout nets on this circuit; nothing to assert")
	}
	if buffered.Gates <= plain.Gates {
		t.Errorf("buffering did not add cells: %d vs %d", buffered.Gates, plain.Gates)
	}
}

func TestPreOptimizeFlow(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	nodesBefore := c.Stats().Nodes
	res, err := RunFlow(c, FlowOptions{
		Mapper: MapperLily, PreOptimize: true, VerifyEquivalence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gates == 0 {
		t.Error("empty result")
	}
	// The caller's circuit must be untouched by the optimizing copy.
	if c.Stats().Nodes != nodesBefore {
		t.Error("PreOptimize mutated the caller's circuit")
	}
}

// With PreOptimize on, the flow maps an optimized copy of the caller's
// network. Verification must check the netlist against the caller's
// network: checked against the copy, an optimizer that changed the
// function would go unnoticed. The planted optimizer bug complements
// one output's cover in the copy.
func TestPreOptimizeVerifiesCallerNetwork(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	optimized := c.net.Clone()
	for _, po := range optimized.POs {
		if nd := optimized.Nodes[po]; nd.Kind == logic.KindLogic {
			nd.Cover = logic.Complement(nd.Cover)
			break
		}
	}
	pre, err := decomp.Premap(optimized)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := mis.Map(pre.Inchoate, library.Big(), mis.DefaultOptions(mis.ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	if method, err := verifyEquivalent(optimized, optimized, pre, nl); err != nil || method != "compositional" {
		t.Fatalf("netlist against the network it was mapped from: method %q, error %v; want a compositional proof", method, err)
	}
	if _, err := verifyEquivalent(c.net, optimized, pre, nl); err == nil || !strings.Contains(err.Error(), "differs from source") {
		t.Fatalf("netlist of a changed optimized copy against the caller's network: error %v, want a difference", err)
	}
}

// The goldens pin the compositional proof for the flow defaults; the
// options that change the premap (layout-driven decomposition), add
// cells (fanout buffers) or restrict the cover (MIS tree mode) must keep
// it too, without a fallback to whole-circuit BDDs.
func TestVerifyCompositionalAcrossOptions(t *testing.T) {
	c, err := GenerateBenchmark("C432")
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []FlowOptions{
		{LayoutDrivenDecomposition: true},
		{FanoutOptimize: true, MaxFanout: 3},
		{FanoutOptimize: true, MaxFanout: 3, Target: TargetLUT4},
		{Mapper: MapperMIS, FanoutOptimize: true, MaxFanout: 3},
		{Mapper: MapperMIS, TreeMode: true, Objective: ObjectiveDelay},
	} {
		opt.VerifyEquivalence = true
		res, err := RunFlow(c, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if res.VerifyMethod != "compositional" {
			t.Errorf("%+v: verify_method %q, want compositional", opt, res.VerifyMethod)
		}
	}
}

func TestSlackInFlow(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunFlow(c, FlowOptions{Mapper: MapperMIS, Objective: ObjectiveDelay,
		ClockPeriodNS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ViolatingCells != 0 || r1.WorstSlackNS <= 0 {
		t.Errorf("loose period: slack=%v violations=%d", r1.WorstSlackNS, r1.ViolatingCells)
	}
	r2, err := RunFlow(c, FlowOptions{Mapper: MapperMIS, Objective: ObjectiveDelay,
		ClockPeriodNS: r1.DelayNS / 2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.ViolatingCells == 0 || r2.WorstSlackNS >= 0 {
		t.Errorf("tight period: slack=%v violations=%d", r2.WorstSlackNS, r2.ViolatingCells)
	}
}

func TestAnnealPlacementFlow(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFlow(c, FlowOptions{Mapper: MapperMIS, AnnealPlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.WirelengthMM <= 0 {
		t.Error("degenerate annealed flow")
	}
}

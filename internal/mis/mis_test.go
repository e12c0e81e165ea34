package mis

import (
	"math/rand"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
	"lily/internal/netlist"
)

// mapBench premaps and maps one benchmark.
func mapBench(t *testing.T, name string, opt Options) (*logic.Network, *logic.Network, *netlist.Netlist) {
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
	nl, err := Map(res.Inchoate, library.Big(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return src, res.Inchoate, nl
}

// checkEquivalent simulates source network vs mapped netlist.
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

func TestAreaMapEquivalence(t *testing.T) {
	for _, name := range []string{"misex1", "b9", "C432"} {
		src, _, nl := mapBench(t, name, DefaultOptions(ModeArea))
		checkEquivalent(t, src, nl, 16, 7)
	}
}

func TestDelayMapEquivalence(t *testing.T) {
	src, _, nl := mapBench(t, "C432", DefaultOptions(ModeDelay))
	checkEquivalent(t, src, nl, 16, 8)
}

func TestAreaMapShrinksSubject(t *testing.T) {
	// Mapping with a rich library must use far fewer gates than the
	// inchoate NAND2/INV network.
	_, sub, nl := mapBench(t, "C880", DefaultOptions(ModeArea))
	if nl.Stat().Cells >= sub.NumLogic() {
		t.Errorf("mapped cells %d not below subject nodes %d", nl.Stat().Cells, sub.NumLogic())
	}
	if float64(nl.Stat().Cells) > 0.8*float64(sub.NumLogic()) {
		t.Errorf("mapping barely merged anything: %d of %d", nl.Stat().Cells, sub.NumLogic())
	}
}

func TestAreaModeBeatsBaseCellsOnArea(t *testing.T) {
	// The area-mode cover must not exceed the trivial cover that maps
	// every subject node to its base cell.
	_, sub, nl := mapBench(t, "C432", DefaultOptions(ModeArea))
	lib := library.Big()
	trivial := 0.0
	for _, nd := range sub.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		if len(nd.Fanins) == 2 {
			trivial += lib.Nand2.Area
		} else {
			trivial += lib.Inv.Area
		}
	}
	if nl.Stat().ActiveArea >= trivial {
		t.Errorf("area-mode active area %.0f >= trivial cover %.0f", nl.Stat().ActiveArea, trivial)
	}
}

func TestTreeModeWorks(t *testing.T) {
	opt := DefaultOptions(ModeArea)
	opt.TreeMode = true
	src, _, nl := mapBench(t, "misex1", opt)
	checkEquivalent(t, src, nl, 16, 9)
}

func TestTreeModeNeverDuplicates(t *testing.T) {
	// In tree mode each subject node appears in at most one gate's merged
	// interior, so the number of cells is at least #multi-fanout regions;
	// practically: cell count in tree mode >= cone mode (duplication-free
	// covering can't merge across fanout boundaries).
	opt := DefaultOptions(ModeArea)
	opt.TreeMode = true
	_, _, nlTree := mapBench(t, "C432", opt)
	_, _, nlCone := mapBench(t, "C432", DefaultOptions(ModeArea))
	if nlTree.Stat().Cells < nlCone.Stat().Cells {
		t.Errorf("tree mode used fewer cells (%d) than cone mode (%d)?",
			nlTree.Stat().Cells, nlCone.Stat().Cells)
	}
}

func TestDelayModeFasterOrEqual(t *testing.T) {
	// Compare mapped depth-ish proxy: delay mode should produce arrival
	// no worse than area mode under the same constant-load STA. We check
	// via the mapper's own objective by re-running timing later in the
	// flow package; here, a structural sanity: both produce valid netlists
	// and delay mode does not blow up area by more than 2x.
	_, _, nlA := mapBench(t, "C880", DefaultOptions(ModeArea))
	_, _, nlD := mapBench(t, "C880", DefaultOptions(ModeDelay))
	if nlD.Stat().ActiveArea > 2.2*nlA.Stat().ActiveArea {
		t.Errorf("delay-mode area %.0f too far above area-mode %.0f",
			nlD.Stat().ActiveArea, nlA.Stat().ActiveArea)
	}
}

func TestRejectsUnpremappedNetwork(t *testing.T) {
	src := bench.Random(5, 6, 3, 20, 4)
	if _, err := Map(src, library.Big(), DefaultOptions(ModeArea)); err == nil {
		t.Error("expected error mapping an unpremapped network")
	}
}

func TestTinyLibraryMapping(t *testing.T) {
	p, _ := bench.ProfileByName("misex1")
	src := bench.Generate(p)
	res, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := Map(res.Inchoate, library.Tiny(), DefaultOptions(ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalent(t, src, nl, 16, 10)
	// Tiny library means more gates than big library.
	nlBig, err := Map(res.Inchoate, library.Big(), DefaultOptions(ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	if nl.Stat().Cells < nlBig.Stat().Cells {
		t.Errorf("tiny library used fewer cells (%d) than big (%d)",
			nl.Stat().Cells, nlBig.Stat().Cells)
	}
}

func TestMapDeterministic(t *testing.T) {
	_, _, a := mapBench(t, "misex1", DefaultOptions(ModeArea))
	_, _, b := mapBench(t, "misex1", DefaultOptions(ModeArea))
	if a.Stat().Cells != b.Stat().Cells || a.Stat().ActiveArea != b.Stat().ActiveArea {
		t.Error("mapping not deterministic")
	}
	for i := range a.Cells {
		if a.Cells[i].Name != b.Cells[i].Name || a.Cells[i].Gate.Name != b.Cells[i].Gate.Name {
			t.Fatalf("cell %d differs", i)
		}
	}
}

// Delay mode evaluates every candidate match against one reused arrival
// buffer, so it allocates no more per run than area mode plus a small
// constant (its second best-so-far map), however many candidates it
// weighs: a per-candidate slice would add about one allocation per
// candidate. The matcher is built first so the count covers the same
// candidates the two modes consider.
func TestDelayModeAllocsPerCandidate(t *testing.T) {
	p, ok := bench.ProfileByName("C432")
	if !ok {
		t.Fatal("no profile C432")
	}
	res, err := decomp.Premap(bench.Generate(p))
	if err != nil {
		t.Fatal(err)
	}
	sub, lib := res.Inchoate, library.Big()
	mt := match.NewMatcher(sub, lib)
	candidates := 0
	for _, nd := range sub.Nodes {
		if nd != nil && nd.Kind == logic.KindLogic {
			candidates += len(mt.AtNode(nd.ID))
		}
	}
	mapAllocs := func(mode Mode) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := Map(sub, lib, DefaultOptions(mode)); err != nil {
				t.Fatal(err)
			}
		})
	}
	area, delay := mapAllocs(ModeArea), mapAllocs(ModeDelay)
	if extra := delay - area; extra > float64(candidates)/20 {
		t.Errorf("delay mode allocates %.0f more than area mode over %d candidates; want no per-candidate allocation",
			extra, candidates)
	}
}

package library

import (
	"math/rand"
	"slices"
	"testing"

	"lily/internal/logic"
)

func TestBigLibraryGates(t *testing.T) {
	lib := Big()
	if lib.Inv == nil || lib.Nand2 == nil {
		t.Fatal("base cells missing")
	}
	if lib.MaxFanin != 6 {
		t.Errorf("big library max fanin = %d, want 6", lib.MaxFanin)
	}
	for _, g := range lib.Gates {
		if g.NumInputs < 1 || g.NumInputs > 6 {
			t.Errorf("%s: %d inputs", g.Name, g.NumInputs)
		}
		if len(g.Timing) != g.NumInputs {
			t.Errorf("%s: %d timing entries for %d inputs", g.Name, len(g.Timing), g.NumInputs)
		}
		if g.Area <= 0 || g.Width <= 0 || g.Height != lib.RowHeight {
			t.Errorf("%s: bad physicals %v %v %v", g.Name, g.Area, g.Width, g.Height)
		}
		if len(g.Patterns) == 0 && g != lib.Buf {
			t.Errorf("%s: no patterns", g.Name)
		}
		if g == lib.Buf && len(g.Patterns) != 0 {
			t.Error("buffer must not participate in matching")
		}
		if g.InputCap <= 0 {
			t.Errorf("%s: no input cap", g.Name)
		}
		for _, pt := range g.Timing {
			if pt.IntrinsicRise <= 0 || pt.IntrinsicFall <= 0 || pt.ResistRise <= 0 || pt.ResistFall <= 0 {
				t.Errorf("%s: nonpositive timing %+v", g.Name, pt)
			}
			if pt.IntrinsicRise <= pt.IntrinsicFall {
				continue // rise must be >= fall per our CMOS skew convention
			}
		}
	}
}

func TestTinyLibraryFaninLimit(t *testing.T) {
	lib := Tiny()
	if lib.MaxFanin > 3 {
		t.Errorf("tiny library has %d-input gates", lib.MaxFanin)
	}
	if lib.GateByName("nand4") != nil {
		t.Error("tiny library must not have nand4")
	}
	if lib.GateByName("nand3") == nil {
		t.Error("tiny library missing nand3")
	}
}

func TestGateCoversFunctional(t *testing.T) {
	lib := Big()
	check := func(name string, fn func(in []bool) bool) {
		g := lib.GateByName(name)
		if g == nil {
			t.Fatalf("gate %s missing", name)
		}
		in := make([]bool, g.NumInputs)
		for r := 0; r < 1<<g.NumInputs; r++ {
			for j := range in {
				in[j] = r&(1<<j) != 0
			}
			if g.Cover.Eval(in) != fn(in) {
				t.Errorf("%s wrong at %v", name, in)
				return
			}
		}
	}
	check("inv", func(in []bool) bool { return !in[0] })
	check("nand3", func(in []bool) bool { return !(in[0] && in[1] && in[2]) })
	check("nor4", func(in []bool) bool { return !(in[0] || in[1] || in[2] || in[3]) })
	check("aoi22", func(in []bool) bool { return !(in[0] && in[1] || in[2] && in[3]) })
	check("oai21", func(in []bool) bool { return !((in[0] || in[1]) && in[2]) })
	check("xor2", func(in []bool) bool { return in[0] != in[1] })
	check("and4", func(in []bool) bool { return in[0] && in[1] && in[2] && in[3] })
}

// Every pattern of every gate must compute the gate function — this is
// enforced by a panic in generatePatterns, but exercise it explicitly.
func TestAllPatternsImplementGate(t *testing.T) {
	for _, lib := range []*Library{Tiny(), Big()} {
		for _, g := range lib.Gates {
			for _, p := range g.Patterns {
				if !patternMatchesCover(g, p.Root) {
					t.Errorf("%s/%s pattern %s wrong", lib.Name, g.Name, p)
				}
				if p.Size != patternSize(p.Root) {
					t.Errorf("%s pattern size mismatch", g.Name)
				}
			}
		}
	}
}

func TestPatternsDeduplicated(t *testing.T) {
	lib := Big()
	for _, g := range lib.Gates {
		seen := map[string]bool{}
		for _, p := range g.Patterns {
			k := p.String()
			if seen[k] {
				t.Errorf("%s: duplicate pattern %s", g.Name, k)
			}
			seen[k] = true
		}
	}
}

func TestMultipleShapesForWideGates(t *testing.T) {
	lib := Big()
	for _, name := range []string{"nand4", "nor4", "and4", "nand6"} {
		g := lib.GateByName(name)
		if len(g.Patterns) < 2 {
			t.Errorf("%s: only %d pattern(s); wide gates need shape variants", name, len(g.Patterns))
		}
	}
	// The inverter has exactly one pattern: INV(leaf).
	inv := lib.GateByName("inv")
	if len(inv.Patterns) != 1 || inv.Patterns[0].Size != 1 {
		t.Errorf("inv patterns wrong: %v", DumpPatterns(inv))
	}
	// nand2 lowers to a single bare NAND node.
	n2 := lib.GateByName("nand2")
	if len(n2.Patterns) != 1 || n2.Patterns[0].Size != 1 {
		t.Errorf("nand2 patterns wrong: %v", DumpPatterns(n2))
	}
}

func TestExprHelpers(t *testing.T) {
	e := not{or{and{in(0), in(1)}, in(2)}} // aoi21
	if numPins(e) != 3 {
		t.Errorf("numPins = %d", numPins(e))
	}
	if exprDepth(e) != 2 {
		t.Errorf("exprDepth = %d", exprDepth(e))
	}
	s := exprToSOP(e, 3)
	want := logic.AoiSOP([]int{2, 1})
	if !logic.EqualFunc(s, want) {
		t.Error("exprToSOP(aoi21) wrong")
	}
}

func TestLibraryDeterministic(t *testing.T) {
	a, b := Big(), Big()
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("gate counts differ")
	}
	for i := range a.Gates {
		if a.Gates[i].Name != b.Gates[i].Name ||
			len(a.Gates[i].Patterns) != len(b.Gates[i].Patterns) {
			t.Fatalf("gate %d differs between builds", i)
		}
		for j := range a.Gates[i].Patterns {
			if a.Gates[i].Patterns[j].String() != b.Gates[i].Patterns[j].String() {
				t.Fatalf("%s pattern %d differs", a.Gates[i].Name, j)
			}
		}
	}
}

func TestWireConstantsPresent(t *testing.T) {
	lib := Big()
	if lib.WireCapH <= 0 || lib.WireCapV <= 0 || lib.WirePitch <= 0 {
		t.Errorf("wire constants missing: %+v", lib)
	}
	if lib.WireCapV <= lib.WireCapH*0.5 || lib.WireCapV >= lib.WireCapH*3 {
		t.Errorf("wire cap anisotropy implausible: h=%v v=%v", lib.WireCapH, lib.WireCapV)
	}
}

func TestDriveStrengthOrdersResistance(t *testing.T) {
	lib := Big()
	inv := lib.GateByName("inv")
	n6 := lib.GateByName("nand6")
	if inv.Timing[0].ResistFall >= n6.Timing[0].ResistFall {
		t.Error("weak wide gate should have higher output resistance than inv")
	}
}

// refUnateness classifies each input of a cover by scalar enumeration of
// its 2^k rows: the reference for the word-parallel classification.
func refUnateness(cover logic.SOP) []Unateness {
	n := cover.NumInputs
	out := make([]Unateness, n)
	vals := make([]bool, n)
	for i := range out {
		canRise, canFall := false, false // output transition when input i rises
		for r := 0; r < 1<<n; r++ {
			if r>>i&1 == 1 {
				continue
			}
			for j := range vals {
				vals[j] = r>>j&1 == 1
			}
			f0 := cover.Eval(vals)
			vals[i] = true
			f1 := cover.Eval(vals)
			canRise = canRise || !f0 && f1
			canFall = canFall || f0 && !f1
		}
		switch {
		case canRise && canFall:
			out[i] = Binate
		case canFall:
			out[i] = UnateNeg
		}
	}
	return out
}

// checkLUTUnateness builds the LUT cell for a cover and checks that the
// cover's truth word agrees with the cover on every row and that the
// word-parallel unateness equals the scalar reference.
func checkLUTUnateness(t *testing.T, cover logic.SOP) {
	t.Helper()
	k := cover.NumInputs
	tt := cover.TruthWord()
	vals := make([]bool, k)
	for r := 0; r < 1<<k; r++ {
		for i := range vals {
			vals[i] = r>>i&1 == 1
		}
		if got, want := tt>>r&1 == 1, cover.Eval(vals); got != want {
			t.Fatalf("k=%d tt=%#x: row %d = %v, cover says %v", k, tt, r, got, want)
		}
	}
	if k < 6 && tt>>(1<<k) != 0 {
		t.Fatalf("k=%d tt=%#x: rows above 2^k set", k, tt)
	}
	g := NewLUT("lut", cover, 6)
	want := refUnateness(cover)
	for i := range want {
		if g.Unate[i] != want[i] {
			t.Fatalf("k=%d tt=%#x: pin %d unateness %v, want %v", k, tt, i, g.Unate[i], want[i])
		}
	}
}

// mintermCover returns the minterm expansion of a k-input truth table.
func mintermCover(k int, tt uint64) logic.SOP {
	cover := logic.NewSOP(k)
	for r := 0; r < 1<<k; r++ {
		if tt>>r&1 == 0 {
			continue
		}
		cube := make(logic.Cube, k)
		for i := range cube {
			cube[i] = logic.LitNeg
			if r>>i&1 == 1 {
				cube[i] = logic.LitPos
			}
		}
		cover.AddCube(cube)
	}
	return cover
}

// TestLUTUnatenessExhaustive checks the truth-table unateness against
// the scalar reference on the minterm cover of every 1- to 4-input
// function.
func TestLUTUnatenessExhaustive(t *testing.T) {
	for k := 1; k <= 4; k++ {
		for tt := uint64(0); tt < 1<<(1<<k); tt++ {
			checkLUTUnateness(t, mintermCover(k, tt))
		}
	}
}

// TestLUTUnatenessRandom checks 20,000 seeded 5- and 6-input covers.
// Half are minterm covers of uniform tables (almost always binate in
// every pin); half are ORs of a few random cubes with don't-care
// literals, which leave many pins unate.
func TestLUTUnatenessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	lits := []logic.Lit{logic.LitDC, logic.LitPos, logic.LitNeg}
	for iter := 0; iter < 20000; iter++ {
		k := 5 + iter%2
		if rng.Intn(2) == 0 {
			tt := rng.Uint64()
			if k < 6 {
				tt &= uint64(1)<<(1<<k) - 1
			}
			checkLUTUnateness(t, mintermCover(k, tt))
			continue
		}
		cover := logic.NewSOP(k)
		for c := rng.Intn(3) + 1; c > 0; c-- {
			cube := make(logic.Cube, k)
			for i := range cube {
				cube[i] = lits[rng.Intn(len(lits))]
			}
			cover.AddCube(cube)
		}
		checkLUTUnateness(t, cover)
	}
}

// TestGateUnatenessMatchesReference checks every built-in gate, buffer
// included, against the scalar reference.
func TestGateUnatenessMatchesReference(t *testing.T) {
	lib := Big()
	for _, g := range append(lib.Gates, lib.Buf) {
		want := refUnateness(g.Cover)
		if !slices.Equal(g.Unate, want) {
			t.Errorf("%s: unateness %v, want %v", g.Name, g.Unate, want)
		}
	}
}

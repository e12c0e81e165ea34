package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGateCovers(t *testing.T) {
	cases := []struct {
		name string
		sop  SOP
		fn   func(in []bool) bool
	}{
		{"and3", AndSOP(3), func(in []bool) bool { return in[0] && in[1] && in[2] }},
		{"or3", OrSOP(3), func(in []bool) bool { return in[0] || in[1] || in[2] }},
		{"nand2", NandSOP(2), func(in []bool) bool { return !(in[0] && in[1]) }},
		{"nor4", NorSOP(4), func(in []bool) bool { return !(in[0] || in[1] || in[2] || in[3]) }},
		{"not", NotSOP(), func(in []bool) bool { return !in[0] }},
		{"buf", BufSOP(), func(in []bool) bool { return in[0] }},
		{"xor3", XorSOP(3), func(in []bool) bool { return in[0] != in[1] != in[2] }},
		{"mux", MuxSOP(), func(in []bool) bool {
			if in[0] {
				return in[1]
			}
			return in[2]
		}},
		{"aoi22", AoiSOP([]int{2, 2}), func(in []bool) bool { return !(in[0] && in[1] || in[2] && in[3]) }},
		{"oai21", OaiSOP([]int{2, 1}), func(in []bool) bool { return !((in[0] || in[1]) && in[2]) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.sop.NumInputs
			in := make([]bool, n)
			for r := 0; r < 1<<n; r++ {
				for j := 0; j < n; j++ {
					in[j] = r&(1<<j) != 0
				}
				if got, want := tc.sop.Eval(in), tc.fn(in); got != want {
					t.Fatalf("%s(%v) = %v, want %v", tc.name, in, got, want)
				}
			}
		})
	}
}

func TestConstCovers(t *testing.T) {
	if !ConstSOP(true).IsConst1() {
		t.Error("ConstSOP(true) not const1")
	}
	if !ConstSOP(false).IsConst0() {
		t.Error("ConstSOP(false) not const0")
	}
	if ConstSOP(true).IsConst0() || ConstSOP(false).IsConst1() {
		t.Error("const covers confused")
	}
	if !ConstSOP(true).Eval(nil) {
		t.Error("const1 evaluates false")
	}
	if ConstSOP(false).Eval(nil) {
		t.Error("const0 evaluates true")
	}
}

func TestComplementInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		s := randomSOP(rng, n)
		cc := Complement(Complement(s))
		if !EqualFunc(s, cc) {
			t.Fatalf("complement not an involution for %v", s)
		}
		// s AND complement(s) must be 0 everywhere.
		tt, tc := s.TruthTable(), Complement(s).TruthTable()
		for i := range tt {
			if tt[i]&tc[i] != 0 {
				t.Fatalf("cover and complement overlap: %v", s)
			}
		}
	}
}

func randomSOP(rng *rand.Rand, n int) SOP {
	s := NewSOP(n)
	cubes := rng.Intn(6)
	for i := 0; i < cubes; i++ {
		c := make(Cube, n)
		for j := range c {
			c[j] = Lit(rng.Intn(3))
		}
		s.AddCube(c)
	}
	return s
}

func TestLiteralCount(t *testing.T) {
	if got := AndSOP(4).LiteralCount(); got != 4 {
		t.Errorf("and4 literals = %d, want 4", got)
	}
	if got := OrSOP(3).LiteralCount(); got != 3 {
		t.Errorf("or3 literals = %d, want 3", got)
	}
	if got := MuxSOP().LiteralCount(); got != 4 {
		t.Errorf("mux literals = %d, want 4", got)
	}
}

func TestDependsOn(t *testing.T) {
	m := MuxSOP()
	for i := 0; i < 3; i++ {
		if !m.DependsOn(i) {
			t.Errorf("mux should depend on input %d", i)
		}
	}
	s := NewSOP(2)
	s.AddCube(Cube{LitPos, LitDC})
	if s.DependsOn(1) {
		t.Error("cover should not depend on input 1")
	}
}

func TestTruthTableWideWord(t *testing.T) {
	// 7 inputs spans two words; parity must alternate correctly.
	x := XorSOP(7)
	tt := x.TruthTable()
	if len(tt) != 2 {
		t.Fatalf("expected 2 words, got %d", len(tt))
	}
	in := make([]bool, 7)
	for r := 0; r < 128; r++ {
		ones := 0
		for j := 0; j < 7; j++ {
			in[j] = r&(1<<j) != 0
			if in[j] {
				ones++
			}
		}
		want := ones%2 == 1
		got := tt[r/64]&(1<<(r%64)) != 0
		if got != want {
			t.Fatalf("xor7 row %d = %v, want %v", r, got, want)
		}
	}
}

func TestEqualFuncDifferentStructure(t *testing.T) {
	// OR(a,b) written as complement of NOR must compare equal.
	a := OrSOP(2)
	b := Complement(NorSOP(2))
	if !EqualFunc(a, b) {
		t.Error("or2 != !nor2")
	}
	if EqualFunc(OrSOP(2), AndSOP(2)) {
		t.Error("or2 == and2")
	}
	if EqualFunc(OrSOP(2), OrSOP(3)) {
		t.Error("covers of different widths compare equal")
	}
}

func TestSOPCloneIndependence(t *testing.T) {
	s := AndSOP(2)
	c := s.Clone()
	c.Cubes[0][0] = LitNeg
	if s.Cubes[0][0] != LitPos {
		t.Error("Clone shares cube storage")
	}
}

func TestSOPStringRendering(t *testing.T) {
	if got := AndSOP(2).String(); got != "11" {
		t.Errorf("and2 string = %q", got)
	}
	if got := NewSOP(2).String(); got != "0" {
		t.Errorf("const0 string = %q", got)
	}
	if got := ConstSOP(true).String(); got != "1" {
		t.Errorf("const1 string = %q", got)
	}
}

// Property: De Morgan — complement of AND equals OR of complements.
func TestDeMorganProperty(t *testing.T) {
	f := func(width uint8) bool {
		n := int(width%5) + 1
		return EqualFunc(Complement(AndSOP(n)), NandSOP(n)) &&
			EqualFunc(Complement(OrSOP(n)), NorSOP(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Eval agrees with TruthTable on every row of random covers,
// from one word up to 16 (ten inputs), and TruthWord is the first word.
func TestEvalMatchesTruthTable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		s := randomSOP(rng, n)
		tt := s.TruthTable()
		in := make([]bool, n)
		for r := 0; r < 1<<n; r++ {
			for j := 0; j < n; j++ {
				in[j] = r&(1<<j) != 0
			}
			if s.Eval(in) != (tt[r/64]&(1<<(r%64)) != 0) {
				t.Fatalf("eval/table mismatch on %v row %d", s, r)
			}
		}
		if n <= len(VarTT) && s.TruthWord() != tt[0] {
			t.Fatalf("TruthWord %#x, TruthTable %#x for %v", s.TruthWord(), tt[0], s)
		}
	}
}

// TestEqualFuncAllocs: comparing covers of up to six inputs allocates
// nothing. The subject-graph checks run it on every subject node.
func TestEqualFuncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for n := 1; n <= 6; n++ {
		a, b := AndSOP(n), Complement(NandSOP(n))
		if allocs := testing.AllocsPerRun(100, func() {
			if !EqualFunc(a, b) {
				t.Fatalf("and%d != !nand%d", n, n)
			}
		}); allocs != 0 {
			t.Errorf("EqualFunc on %d inputs: %v allocations, want 0", n, allocs)
		}
	}
}

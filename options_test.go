package lily

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestNormalizeRejects pins the one validation rule set every entry point
// (RunFlow, the engine, lilyd, lilymap) shares.
func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name    string
		opt     FlowOptions
		wantErr string
	}{
		{"NaN wire weight", FlowOptions{WireWeight: math.NaN()}, "wire weight must be finite and >= 0 (got NaN)"},
		{"+Inf wire weight", FlowOptions{WireWeight: math.Inf(1)}, "wire weight must be finite and >= 0 (got +Inf)"},
		{"-Inf wire weight", FlowOptions{WireWeight: math.Inf(-1)}, "wire weight must be finite and >= 0 (got -Inf)"},
		{"negative wire weight", FlowOptions{WireWeight: -0.5}, "wire weight must be finite and >= 0 (got -0.5)"},
		{"NaN under MIS", FlowOptions{Mapper: MapperMIS, WireWeight: math.NaN()}, "wire weight must be finite and >= 0"},
		{"negative clock period", FlowOptions{ClockPeriodNS: -1}, "clock period must be finite and >= 0 (got -1)"},
		{"NaN clock period", FlowOptions{ClockPeriodNS: math.NaN()}, "clock period must be finite and >= 0 (got NaN)"},
		{"+Inf clock period", FlowOptions{ClockPeriodNS: math.Inf(1)}, "clock period must be finite and >= 0 (got +Inf)"},
		{"mapper out of range", FlowOptions{Mapper: 2}, "unknown mapper 2"},
		{"negative mapper", FlowOptions{Mapper: -1}, "unknown mapper -1"},
		{"objective out of range", FlowOptions{Objective: 2}, "unknown objective 2"},
		{"library out of range", FlowOptions{Library: 2}, "unknown library 2"},
		{"target out of range", FlowOptions{Target: 3}, "unknown target 3"},
		{"update out of range", FlowOptions{Update: 3}, "unknown update rule 3"},
		{"estimator out of range", FlowOptions{Estimator: -1}, "unknown estimator -1"},
		{"lut4 under MIS", FlowOptions{Mapper: MapperMIS, Target: TargetLUT4}, `target "lut4" requires the lily mapper`},
		{"lut6 under MIS", FlowOptions{Mapper: MapperMIS, Target: TargetLUT6}, `target "lut6" requires the lily mapper`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.opt.Normalize()
			if err == nil {
				t.Fatalf("Normalize(%+v) = %+v, want error %q", tc.opt, got, tc.wantErr)
			}
			if !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want %q", err, tc.wantErr)
			}
		})
	}
	// The pipeline refuses the same inputs, before any work.
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFlow(c, FlowOptions{WireWeight: math.NaN()}); err == nil ||
		err.Error() != "lily: wire weight must be finite and >= 0 (got NaN)" {
		t.Fatalf("RunFlow with NaN λ: err = %v", err)
	}
}

// TestNormalizeIdempotent checks Normalize(Normalize(x)) == Normalize(x)
// over every enum value crossed with the knobs it canonicalizes.
func TestNormalizeIdempotent(t *testing.T) {
	for m := MapperLily; m <= MapperMIS; m++ {
		for tgt := TargetASIC; tgt <= TargetLUT6; tgt++ {
			for _, knobs := range []FlowOptions{
				{},
				{WireWeight: 0.5, AutoTune: true, ReplaceEvery: 3, TwoPassDelay: true, NaivePads: true,
					Update: UpdateMedianFans, Estimator: WireSpanningTree, DisableConeOrdering: true},
				{TreeMode: true, FanoutOptimize: true, MaxFanout: 1, Parallelism: 3},
				{FanoutOptimize: true, MaxFanout: 9, ClockPeriodNS: 2.5},
				{MaxFanout: 4, Objective: ObjectiveDelay, Library: LibraryTiny},
			} {
				opt := knobs
				opt.Mapper, opt.Target = m, tgt
				once, err := opt.Normalize()
				if m == MapperMIS && tgt != TargetASIC {
					if err == nil {
						t.Fatalf("%+v: LUT target under MIS accepted", opt)
					}
					continue
				}
				if err != nil {
					t.Fatalf("Normalize(%+v): %v", opt, err)
				}
				twice, err := once.Normalize()
				if err != nil || twice != once {
					t.Fatalf("Normalize not idempotent on %+v:\n once %+v\ntwice %+v (err %v)", opt, once, twice, err)
				}
				if once.Parallelism != 0 {
					t.Fatalf("Normalize kept the ignored Parallelism %d", once.Parallelism)
				}
			}
		}
	}
}

// TestEnumSpellings round-trips every enum value through its Parse
// function and pins the accepted aliases and the error text.
func TestEnumSpellings(t *testing.T) {
	for m := MapperLily; m <= MapperMIS; m++ {
		if got, err := ParseMapper(m.String()); err != nil || got != m {
			t.Errorf("ParseMapper(%q) = %v, %v", m.String(), got, err)
		}
	}
	for o := ObjectiveArea; o <= ObjectiveDelay; o++ {
		if got, err := ParseObjective(o.String()); err != nil || got != o {
			t.Errorf("ParseObjective(%q) = %v, %v", o.String(), got, err)
		}
	}
	for l := LibraryBig; l <= LibraryTiny; l++ {
		if got, err := ParseLibraryChoice(l.String()); err != nil || got != l {
			t.Errorf("ParseLibraryChoice(%q) = %v, %v", l.String(), got, err)
		}
	}
	for tg := TargetASIC; tg <= TargetLUT6; tg++ {
		if got, err := ParseTechnologyTarget(tg.String()); err != nil || got != tg {
			t.Errorf("ParseTechnologyTarget(%q) = %v, %v", tg.String(), got, err)
		}
	}
	for i, s := range []string{"cm-of-fans", "cm-of-merged", "median"} {
		if got, err := ParsePlacementUpdate(s); err != nil || got != PlacementUpdate(i) {
			t.Errorf("ParsePlacementUpdate(%q) = %v, %v", s, got, err)
		}
	}
	for i, s := range []string{"hpwl", "rmst"} {
		if got, err := ParseWireEstimator(s); err != nil || got != WireEstimator(i) {
			t.Errorf("ParseWireEstimator(%q) = %v, %v", s, got, err)
		}
	}
	if got, err := ParseMapper("mis"); err != nil || got != MapperMIS {
		t.Errorf(`ParseMapper("mis") = %v, %v`, got, err)
	}
	if got, err := ParseObjective(""); err != nil || got != ObjectiveArea {
		t.Errorf(`ParseObjective("") = %v, %v`, got, err)
	}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{second(ParseMapper("abc")), `unknown mapper "abc" (want "lily" or "mis2.1")`},
		{second(ParsePlacementUpdate("x")), `unknown update rule "x" (want "cm-of-fans", "cm-of-merged", or "median")`},
		{second(ParseTechnologyTarget("LUT4")), `unknown target "LUT4" (want "asic", "lut4", or "lut6")`},
	} {
		if tc.err == nil || tc.err.Error() != tc.want {
			t.Errorf("error = %v, want %q", tc.err, tc.want)
		}
	}
}

func second[T any](_ T, err error) error { return err }

// TestNormalizeEquatesSameBytes checks that the canonical form is sound:
// option pairs Normalize maps to one form (and the engine therefore to
// one cache entry) produce byte-identical mapped BLIF.
func TestNormalizeEquatesSameBytes(t *testing.T) {
	c, err := GenerateBenchmark("misex1")
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name string
		a, b FlowOptions
	}{
		{"MIS ignores the Lily-only knobs",
			FlowOptions{Mapper: MapperMIS},
			FlowOptions{Mapper: MapperMIS, AutoTune: true, WireWeight: 0.5, Update: UpdateMedianFans,
				Estimator: WireSpanningTree, DisableConeOrdering: true, ReplaceEvery: 3, NaivePads: true,
				TwoPassDelay: true}},
		{"WireWeight 0 is 1", FlowOptions{}, FlowOptions{WireWeight: 1}},
		{"MaxFanout 0 is the default", FlowOptions{FanoutOptimize: true}, FlowOptions{FanoutOptimize: true, MaxFanout: 6}},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			na, err := p.a.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			nb, err := p.b.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			if na != nb {
				t.Fatalf("Normalize does not equate the pair:\n%+v\n%+v", na, nb)
			}
			var ba, bb bytes.Buffer
			if _, err := WriteMappedBLIF(c, p.a, &ba); err != nil {
				t.Fatal(err)
			}
			if _, err := WriteMappedBLIF(c, p.b, &bb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
				t.Fatalf("equated options map to different BLIF (%d vs %d bytes)", ba.Len(), bb.Len())
			}
		})
	}
}

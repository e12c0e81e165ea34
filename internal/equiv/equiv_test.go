package equiv

import (
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/mis"
	"lily/internal/netlist"
)

func mapped(t testing.TB, name string) (*logic.Network, *netlist.Netlist) {
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
	nl, err := mis.Map(res.Inchoate, library.Big(), mis.DefaultOptions(mis.ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	return src, nl
}

func TestFormallyEquivalent(t *testing.T) {
	for _, name := range []string{"misex1", "b9", "C432", "duke2"} {
		src, nl := mapped(t, name)
		res, err := Check(src, nl, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Equivalent {
			t.Fatalf("%s: mapper output not equivalent! output %s cex %v",
				name, res.FailingOutput, res.Counterexample)
		}
		if res.Method != MethodBDD {
			t.Errorf("%s: expected a formal verdict, got %v", name, res.Method)
		}
		if res.BDDNodes < 3 {
			t.Errorf("%s: implausible node count %d", name, res.BDDNodes)
		}
	}
}

func TestDetectsInjectedBug(t *testing.T) {
	src, nl := mapped(t, "misex1")
	// Failure injection: flip one gate to an almost-identical function.
	lib := library.Big()
	for _, c := range nl.Cells {
		if c.Gate.Name == "nand2" {
			c.Gate = lib.GateByName("nor2")
			break
		}
	}
	res, err := Check(src, nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("injected bug not detected")
	}
	if res.FailingOutput == "" {
		t.Error("no failing output named")
	}
	// The counterexample must actually expose the difference.
	want, err := src.Eval(res.Counterexample)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nl.Eval(res.Counterexample)
	if err != nil {
		t.Fatal(err)
	}
	if want[res.FailingOutput] == got[res.FailingOutput] {
		t.Error("counterexample does not expose the bug")
	}
}

func TestFallbackToSimulation(t *testing.T) {
	src, nl := mapped(t, "C432")
	opt := DefaultOptions()
	opt.MaxBDDNodes = 50 // force the budget failure
	res, err := Check(src, nl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodSimulation {
		t.Fatalf("expected simulation fallback, got %v", res.Method)
	}
	if !res.Equivalent {
		t.Error("simulation flagged a correct mapping")
	}
	if res.Vectors == 0 {
		t.Error("no vectors recorded")
	}
}

func TestInterfaceMismatchRejected(t *testing.T) {
	src, nl := mapped(t, "misex1")
	nl.POs = nl.POs[:len(nl.POs)-1]
	if _, err := Check(src, nl, DefaultOptions()); err == nil {
		t.Error("missing output not rejected")
	}
}

func TestSimulationDetectsGrossBug(t *testing.T) {
	src, nl := mapped(t, "misex1")
	lib := library.Big()
	// Invert every output driver's function by swapping gates grossly.
	for _, c := range nl.Cells {
		if c.Gate.Name == "inv" {
			c.Gate = lib.Buf
		}
	}
	opt := DefaultOptions()
	opt.MaxBDDNodes = 50
	res, err := Check(src, nl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Error("simulation missed a gross bug")
	}
}

// A netlist that reads an input the source lacks must be rejected, not
// checked with the extra input aliased to some source input. The moved
// pin read the sorted-first input, which an unknown name used to alias
// to, so the tampered netlist would even have been proved equivalent.
func TestExtraInputRejected(t *testing.T) {
	src, nl := mapped(t, "misex1")
	first := nl.PIIndex(sortedPINames(src)[0])
	nl.PINames = append(nl.PINames, "zz_extra")
	nl.PIPos = append(nl.PIPos, nl.PIPos[0])
	moved := false
	for _, c := range nl.Cells {
		for i, r := range c.Inputs {
			if r.IsPI && r.Index == first && !moved {
				c.Inputs[i] = netlist.Ref{IsPI: true, Index: len(nl.PINames) - 1}
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("no cell reads the sorted-first input")
	}
	if res, err := Check(src, nl, DefaultOptions()); err == nil {
		t.Errorf("netlist with extra input zz_extra accepted: %+v", res)
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	src, nl := mapped(t, "misex1")
	nl.PINames[1] = nl.PINames[0]
	if _, err := Check(src, nl, DefaultOptions()); err == nil {
		t.Error("netlist listing an input twice accepted")
	}
	src, nl = mapped(t, "misex1")
	nl.POs[len(nl.POs)-1].Name = nl.POs[0].Name
	if _, err := Check(src, nl, DefaultOptions()); err == nil {
		t.Error("netlist listing an output twice accepted")
	}
	src, nl = mapped(t, "misex1")
	src.MarkPO(src.POs[0], src.PONames[0])
	nl.POs = append(nl.POs, nl.POs[0])
	if _, err := Check(src, nl, DefaultOptions()); err == nil {
		t.Error("source listing an output twice accepted")
	}
}

package equiv

import (
	"fmt"
	"strings"
	"testing"

	"lily/internal/bench"
	"lily/internal/core"
	"lily/internal/decomp"
	"lily/internal/fanout"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/mis"
	"lily/internal/netlist"
)

// mapTargets names the mappings the compositional proof must cover: Lily
// at each target and MIS on the ASIC library.
var mapTargets = []string{"asic", "lut4", "lut6", "mis"}

// mapSubject premaps src and maps it for the named target.
func mapSubject(t testing.TB, src *logic.Network, target string) (*decomp.Result, *netlist.Netlist) {
	t.Helper()
	pre, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	if target == "mis" {
		nl, err := mis.Map(pre.Inchoate, library.Big(), mis.DefaultOptions(mis.ModeArea))
		if err != nil {
			t.Fatal(err)
		}
		return pre, nl
	}
	opt := core.DefaultOptions(core.ModeArea)
	opt.Target = map[string]core.Target{"asic": core.TargetASIC, "lut4": core.TargetLUT4, "lut6": core.TargetLUT6}[target]
	res, err := core.Map(pre.Inchoate, library.Big(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return pre, res.Netlist
}

// mappedCircuit generates a benchmark circuit and maps it for target.
func mappedCircuit(t testing.TB, name, target string) (*logic.Network, *decomp.Result, *netlist.Netlist) {
	t.Helper()
	p, ok := bench.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	src := bench.Generate(p)
	pre, nl := mapSubject(t, src, target)
	return src, pre, nl
}

// buffered inserts fanout buffers into a Lily netlist (which carries
// positions) so no net keeps more than three sinks.
func buffered(t testing.TB, nl *netlist.Netlist) int {
	t.Helper()
	st, err := fanout.Optimize(nl, library.Big(), fanout.Options{MaxFanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	return st.BuffersInserted
}

func requireCompositional(t testing.TB, what string, src *logic.Network, pre *decomp.Result, nl *netlist.Netlist) {
	t.Helper()
	res, err := Compositional(src, pre, nl)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !res.Equivalent || res.Method != MethodCompositional {
		t.Fatalf("%s: equivalent=%v method=%v, want a compositional proof", what, res.Equivalent, res.Method)
	}
}

// A source node wider than six fanins is proved on a local BDD; a
// constant node's tree reads the first input, which the proof binds as
// one more variable.
func TestCompositionalWideAndConstantNodes(t *testing.T) {
	src := logic.New("wide")
	var ins []logic.NodeID
	for i := 0; i < 9; i++ {
		ins = append(ins, src.AddPI(fmt.Sprintf("x%d", i)).ID)
	}
	wide := logic.NewSOP(9)
	wide.AddCube(logic.Cube{logic.LitPos, logic.LitNeg, logic.LitDC, logic.LitPos, logic.LitDC, logic.LitDC, logic.LitPos, logic.LitDC, logic.LitNeg})
	wide.AddCube(logic.Cube{logic.LitDC, logic.LitPos, logic.LitPos, logic.LitDC, logic.LitNeg, logic.LitPos, logic.LitDC, logic.LitPos, logic.LitDC})
	w := src.AddLogic("w", ins, wide)
	one := src.AddLogic("one", nil, logic.ConstSOP(true))
	o := src.AddLogic("o", []logic.NodeID{w.ID, one.ID, ins[3]}, logic.XorSOP(3))
	src.MarkPO(o.ID, "o")
	src.MarkPO(one.ID, "k")
	for _, target := range mapTargets {
		pre, nl := mapSubject(t, src, target)
		res, err := Compositional(src, pre, nl)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if res.BDDNodes == 0 {
			t.Errorf("%s: the nine-input node was not proved on a local BDD", target)
		}
	}
}

// requireNamedCone checks a planted defect against Compositional and
// Prove: the local proof fails naming the cell and a subject node, and
// the fallback returns a counterexample that the source and netlist
// evaluate apart.
func requireNamedCone(t *testing.T, src *logic.Network, pre *decomp.Result, nl *netlist.Netlist, cell string) {
	t.Helper()
	if _, err := Compositional(src, pre, nl); err == nil {
		t.Fatal("defect proved equivalent")
	} else if !strings.Contains(err.Error(), fmt.Sprintf("%q", cell)) || !strings.Contains(err.Error(), "subject node") {
		t.Errorf("error %q does not name cell %q and its subject node", err, cell)
	}
	res, err := Prove(src, pre, nl)
	if err != nil {
		t.Fatal(err)
	}
	requireFormalCounterexample(t, "fallback", src, nl, res)
}

// changesOutput reports whether the monolithic check finds nl different
// from src: a planted defect that changes no output is no defect.
func changesOutput(t *testing.T, src *logic.Network, nl *netlist.Netlist) bool {
	t.Helper()
	res, err := Check(src, nl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodBDD {
		t.Fatalf("monolithic check sampled (%v); the plant needs a formal verdict", res.Method)
	}
	return !res.Equivalent
}

// Each plant below is the first candidate, in cell order, that changes
// some output. Compositional must reject it naming the offending cell and
// its subject node, and Prove must still find the counterexample.
func TestMutationsNameTheCone(t *testing.T) {
	t.Run("lut6-flipped-bit", func(t *testing.T) {
		src, pre, nl := mappedCircuit(t, "C1908", "lut6")
		for _, cell := range nl.Cells {
			orig := cell.Gate
			for r := 0; r < 1<<orig.NumInputs; r++ {
				cell.Gate = flipLUTBit(orig, r)
				if changesOutput(t, src, nl) {
					requireNamedCone(t, src, pre, nl, cell.Name)
					return
				}
			}
			cell.Gate = orig
		}
		t.Fatal("no single truth-table bit flip changed an output")
	})
	t.Run("asic-swapped-pins", func(t *testing.T) {
		src, pre, nl := mappedCircuit(t, "C1908", "asic")
		for _, cell := range nl.Cells {
			in := cell.Inputs
			for i := 0; i < len(in); i++ {
				for j := i + 1; j < len(in); j++ {
					if in[i] == in[j] || symmetricPins(cell.Gate.Truth, i, j) {
						continue
					}
					in[i], in[j] = in[j], in[i]
					if changesOutput(t, src, nl) {
						requireNamedCone(t, src, pre, nl, cell.Name)
						return
					}
					in[i], in[j] = in[j], in[i]
				}
			}
		}
		t.Fatal("no pin swap changed an output")
	})
	t.Run("rewired-fanout-buffer", func(t *testing.T) {
		src, pre, nl := mappedCircuit(t, "C1908", "asic")
		if buffered(t, nl) == 0 {
			t.Fatal("no fanout buffer inserted")
		}
		requireCompositional(t, "buffered C1908/asic", src, pre, nl)
		for _, cell := range nl.Cells {
			if pre.Inchoate.NodeByName(cell.Name) != nil {
				continue
			}
			orig := cell.Inputs[0]
			for pi := range nl.PINames {
				if r := (netlist.Ref{IsPI: true, Index: pi}); r != orig {
					cell.Inputs[0] = r
					if changesOutput(t, src, nl) {
						requireNamedCone(t, src, pre, nl, cell.Name)
						return
					}
				}
			}
			cell.Inputs[0] = orig
		}
		t.Fatal("no buffer rewiring changed an output")
	})
	t.Run("inverting-fanout-buffer", func(t *testing.T) {
		src, pre, nl := mappedCircuit(t, "C1908", "asic")
		buffered(t, nl)
		for _, cell := range nl.Cells {
			if pre.Inchoate.NodeByName(cell.Name) == nil {
				cell.Gate = library.Big().Inv
				if _, err := Compositional(src, pre, nl); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", cell.Name)) {
					t.Fatalf("buffer %s made an inverter: error %v, want it named", cell.Name, err)
				}
				return
			}
		}
		t.Fatal("no fanout buffer inserted")
	})
}

// The premap and wiring checks: a source node changed after mapping
// fails its premap check, named with its subject node, and two swapped
// output drivers fail the wiring check, named with the driver.
func TestCompositionalChecksPremapAndWiring(t *testing.T) {
	src, pre, nl := mappedCircuit(t, "C432", "asic")
	for _, id := range src.POs {
		nd := src.Nodes[id]
		if nd.Kind != logic.KindLogic {
			continue
		}
		orig := nd.Cover
		nd.Cover = logic.Complement(orig)
		_, err := Compositional(src, pre, nl)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("source node %q (subject node", nd.Name)) {
			t.Fatalf("complemented source node %s: error %v, want its premap check to fail", nd.Name, err)
		}
		res, err := Prove(src, pre, nl)
		if err != nil {
			t.Fatal(err)
		}
		requireFormalCounterexample(t, "complemented source node", src, nl, res)
		nd.Cover = orig
		break
	}
	requireCompositional(t, "restored C432/asic", src, pre, nl)
	nl.POs[0].Driver, nl.POs[1].Driver = nl.POs[1].Driver, nl.POs[0].Driver
	_, err := Compositional(src, pre, nl)
	if want := fmt.Sprintf("output %q: driver %q", nl.POs[0].Name, nl.Cells[nl.POs[0].Driver.Index].Name); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("swapped output drivers: error %v, want it to contain %s", err, want)
	}
}

// Wherever the monolithic check proves a paper circuit's Lily mapping
// at asic or lut6 within the default budget, the compositional proof
// must prove it too.
func TestCompositionalAgreesWithBDD(t *testing.T) {
	if testing.Short() {
		t.Skip("maps and checks all fifteen paper circuits twice")
	}
	proved := 0
	for _, p := range bench.Profiles() {
		for _, target := range []string{"asic", "lut6"} {
			src, pre, nl := mappedCircuit(t, p.Name, target)
			res, err := Check(src, nl, DefaultOptions())
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, target, err)
			}
			if res.Method != MethodBDD {
				continue
			}
			if !res.Equivalent {
				t.Fatalf("%s/%s: BDD counterexample at %s", p.Name, target, res.FailingOutput)
			}
			requireCompositional(t, p.Name+"/"+target, src, pre, nl)
			proved++
		}
	}
	if proved < 2*(len(bench.Profiles())-2) {
		t.Errorf("the BDD check proved only %d mappings", proved)
	}
}

// FuzzCompositional maps a small random network with Lily at every
// target and with MIS, and requires Compositional to prove each mapping;
// wherever the monolithic check fits its budget it must agree. Wide
// fanin draws put source nodes on the local-BDD path.
func FuzzCompositional(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint8(20), uint8(4))
	f.Add(int64(7), uint8(9), uint8(2), uint8(12), uint8(8))
	f.Add(int64(42), uint8(3), uint8(4), uint8(30), uint8(3))
	f.Add(int64(-5), uint8(12), uint8(5), uint8(40), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, pis, pos, nodes, fanin uint8) {
		src := bench.Random(seed, 1+int(pis%16), 1+int(pos%8), 1+int(nodes%48), 1+int(fanin%9))
		pre, err := decomp.Premap(src)
		if err != nil {
			t.Fatal(err)
		}
		if pre.Inchoate.NumLogic() == 0 {
			t.Skip("the mappers need a subject graph with logic nodes")
		}
		for _, target := range mapTargets {
			pre, nl := mapSubject(t, src, target)
			if target != "mis" {
				buffered(t, nl)
			}
			requireCompositional(t, target, src, pre, nl)
			res, err := Check(src, nl, DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", target, err)
			}
			if res.Method == MethodBDD && !res.Equivalent {
				t.Fatalf("%s: compositional proof, but BDD counterexample at %s: %v", target, res.FailingOutput, res.Counterexample)
			}
		}
	})
}

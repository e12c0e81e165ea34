package timing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lily/internal/geom"
	"lily/internal/library"
	"lily/internal/netlist"
	"lily/internal/wire"
)

// RefAnalyze is the reference static timing analysis that Analyze must
// reproduce bit for bit: the per-cell loop that tries every (pin, input
// phase) candidate of each output phase in turn and keeps the first
// strict maximum with its argmax. refGateOutputArrival is the same
// one-gate formula of §4.1 that BlockArrival must reproduce. RefAnalyze
// is exported to the package's external tests, which check the mapped
// netlists of the paper suite.
var RefAnalyze = refAnalyze

// refNetLoad is the net load C_L = ΣC_j + (c_h·X + c_v·Y): sink pin
// capacitances first, then the wiring capacitance added as one term.
func refNetLoad(nl *netlist.Netlist, lib *library.Library, net netlist.Net, ws *wire.Scratch) float64 {
	cl := 0.0
	for _, s := range net.Sinks {
		cl += nl.Cells[s.Cell].Gate.InputCap
	}
	x, y := ws.LengthXY(wireModel, nl.NetPins(net))
	cl += lib.WireCapH*x + lib.WireCapV*y
	return cl
}

func refAnalyze(nl *netlist.Netlist, lib *library.Library) (*Result, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	cellLoad := make([]float64, len(nl.Cells))
	piLoad := make([]float64, len(nl.PINames))
	var ws wire.Scratch
	for _, net := range nl.Nets() {
		cl := refNetLoad(nl, lib, net, &ws)
		if net.Driver.IsPI {
			piLoad[net.Driver.Index] = cl
		} else {
			cellLoad[net.Driver.Index] = cl
		}
	}

	arr := make([]Arrival, len(nl.Cells))
	type argMax struct {
		pin      int
		fromRise bool
	}
	argRise := make([]argMax, len(nl.Cells))
	argFall := make([]argMax, len(nl.Cells))
	refArr := func(r netlist.Ref) Arrival {
		if r.IsPI {
			return Arrival{Rise: piArrival, Fall: piArrival}
		}
		return arr[r.Index]
	}
	for _, ci := range order {
		c := nl.Cells[ci]
		cl := cellLoad[ci]
		rise, fall := math.Inf(-1), math.Inf(-1)
		var ar, af argMax
		for pin, r := range c.Inputs {
			in := refArr(r)
			pt := c.Gate.Timing[pin]
			u := c.Gate.Unate[pin]
			if u == library.UnatePos || u == library.Binate {
				if t := in.Rise + pt.IntrinsicRise + pt.ResistRise*cl; t > rise {
					rise, ar = t, argMax{pin, true}
				}
			}
			if u == library.UnateNeg || u == library.Binate {
				if t := in.Fall + pt.IntrinsicRise + pt.ResistRise*cl; t > rise {
					rise, ar = t, argMax{pin, false}
				}
			}
			if u == library.UnatePos || u == library.Binate {
				if t := in.Fall + pt.IntrinsicFall + pt.ResistFall*cl; t > fall {
					fall, af = t, argMax{pin, false}
				}
			}
			if u == library.UnateNeg || u == library.Binate {
				if t := in.Rise + pt.IntrinsicFall + pt.ResistFall*cl; t > fall {
					fall, af = t, argMax{pin, true}
				}
			}
		}
		if len(c.Inputs) == 0 {
			rise, fall = piArrival, piArrival
		}
		arr[ci] = Arrival{Rise: rise, Fall: fall}
		argRise[ci] = ar
		argFall[ci] = af
	}

	res := &Result{CellArrival: arr, CellLoad: cellLoad, MaxDelay: math.Inf(-1)}
	var critRef netlist.Ref
	for _, po := range nl.POs {
		a := refArr(po.Driver).Max()
		if a > res.MaxDelay {
			res.MaxDelay = a
			res.CriticalPO = po.Name
			critRef = po.Driver
		}
	}
	if len(nl.POs) == 0 {
		return nil, fmt.Errorf("timing: netlist has no primary outputs")
	}

	var path []PathStep
	r := critRef
	useRise := true
	if !r.IsPI {
		useRise = arr[r.Index].Rise >= arr[r.Index].Fall
	}
	for !r.IsPI {
		ci := r.Index
		c := nl.Cells[ci]
		path = append(path, PathStep{
			Name: c.Name, Gate: c.Gate.Name,
			Arrival: arr[ci].Max(), Load: cellLoad[ci],
		})
		am := argFall[ci]
		if useRise {
			am = argRise[ci]
		}
		if am.pin >= len(c.Inputs) {
			break
		}
		r = c.Inputs[am.pin]
		useRise = am.fromRise
	}
	if r.IsPI {
		path = append(path, PathStep{
			Name: nl.PINames[r.Index], Arrival: piArrival, Load: piLoad[r.Index],
		})
	}
	slices.Reverse(path)
	res.CriticalPath = path
	return res, nil
}

func refGateOutputArrival(g *library.Gate, in []Arrival, cl float64) Arrival {
	rise, fall := math.Inf(-1), math.Inf(-1)
	for pin := range in {
		pt := g.Timing[pin]
		u := g.Unate[pin]
		if u == library.UnatePos || u == library.Binate {
			if t := in[pin].Rise + pt.IntrinsicRise + pt.ResistRise*cl; t > rise {
				rise = t
			}
			if t := in[pin].Fall + pt.IntrinsicFall + pt.ResistFall*cl; t > fall {
				fall = t
			}
		}
		if u == library.UnateNeg || u == library.Binate {
			if t := in[pin].Fall + pt.IntrinsicRise + pt.ResistRise*cl; t > rise {
				rise = t
			}
			if t := in[pin].Rise + pt.IntrinsicFall + pt.ResistFall*cl; t > fall {
				fall = t
			}
		}
	}
	if len(in) == 0 {
		return Arrival{}
	}
	return Arrival{Rise: rise, Fall: fall}
}

// SameAnalysis reports the first field in which got differs from want,
// comparing every float bit for bit.
func SameAnalysis(got, want *Result) error {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.CellArrival) != len(want.CellArrival) || len(got.CellLoad) != len(want.CellLoad) {
		return fmt.Errorf("cell counts differ: %d/%d vs %d/%d",
			len(got.CellArrival), len(got.CellLoad), len(want.CellArrival), len(want.CellLoad))
	}
	for i := range got.CellArrival {
		g, w := got.CellArrival[i], want.CellArrival[i]
		if !same(g.Rise, w.Rise) || !same(g.Fall, w.Fall) {
			return fmt.Errorf("cell %d arrival %+v, want %+v", i, g, w)
		}
		if !same(got.CellLoad[i], want.CellLoad[i]) {
			return fmt.Errorf("cell %d load %v, want %v", i, got.CellLoad[i], want.CellLoad[i])
		}
	}
	if !same(got.MaxDelay, want.MaxDelay) || got.CriticalPO != want.CriticalPO {
		return fmt.Errorf("max delay %v at %q, want %v at %q", got.MaxDelay, got.CriticalPO, want.MaxDelay, want.CriticalPO)
	}
	if len(got.CriticalPath) != len(want.CriticalPath) {
		return fmt.Errorf("critical path has %d steps, want %d", len(got.CriticalPath), len(want.CriticalPath))
	}
	for i, g := range got.CriticalPath {
		w := want.CriticalPath[i]
		if g.Name != w.Name || g.Gate != w.Gate || !same(g.Arrival, w.Arrival) || !same(g.Load, w.Load) {
			return fmt.Errorf("critical path step %d is %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// tiedLibrary returns a big library whose every pin has equal rise and
// fall parameters, so the two phases of every signal tie exactly and each
// binate pin's two candidates meet.
func tiedLibrary() *library.Library {
	lib := library.Big()
	for _, g := range lib.Gates {
		for i := range g.Timing {
			g.Timing[i].IntrinsicFall = g.Timing[i].IntrinsicRise
			g.Timing[i].ResistFall = g.Timing[i].ResistRise
		}
	}
	return lib
}

// randomNetlist builds a placed DAG of n cells over gates drawn from lib,
// weighted toward the binate ones. Positions snap to a coarse grid, so
// some nets have zero wire load, and a cell often binds one driver to
// several pins, so pins tie.
func randomNetlist(rng *rand.Rand, lib *library.Library, n int) *netlist.Netlist {
	var binate, gates []*library.Gate
	for _, g := range lib.Gates {
		if g.NumInputs == 0 {
			continue
		}
		gates = append(gates, g)
		if slices.Contains(g.Unate, library.Binate) {
			binate = append(binate, g)
		}
	}
	pt := func() geom.Point { return geom.Point{X: float64(rng.Intn(4) * 40), Y: float64(rng.Intn(4) * 40)} }
	nl := &netlist.Netlist{Name: "rand"}
	for i := 0; i < 1+rng.Intn(5); i++ {
		nl.PINames = append(nl.PINames, fmt.Sprintf("i%d", i))
		nl.PIPos = append(nl.PIPos, pt())
	}
	pick := func() netlist.Ref {
		k := rng.Intn(len(nl.PINames) + len(nl.Cells))
		if k < len(nl.PINames) {
			return netlist.Ref{IsPI: true, Index: k}
		}
		return netlist.Ref{Index: k - len(nl.PINames)}
	}
	for i := 0; i < n; i++ {
		g := gates[rng.Intn(len(gates))]
		if len(binate) > 0 && rng.Intn(2) == 0 {
			g = binate[rng.Intn(len(binate))]
		}
		c := &netlist.Cell{Name: fmt.Sprintf("c%d", i), Gate: g, Pos: pt()}
		for p := 0; p < g.NumInputs; p++ {
			r := pick()
			if p > 0 && rng.Intn(3) == 0 {
				r = c.Inputs[rng.Intn(p)]
			}
			c.Inputs = append(c.Inputs, r)
		}
		nl.AddCell(c)
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		nl.POs = append(nl.POs, netlist.PO{Name: fmt.Sprintf("o%d", i), Driver: pick(), Pad: pt()})
	}
	return nl
}

// TestAnalyzeMatchesReferenceRandom checks Analyze against the reference
// on random netlists with binate gates, under the big library and under
// its copy whose rise and fall parameters are equal.
func TestAnalyzeMatchesReferenceRandom(t *testing.T) {
	for li, lib := range []*library.Library{library.Big(), tiedLibrary()} {
		rng := rand.New(rand.NewSource(int64(li + 1)))
		for k := 0; k < 300; k++ {
			nl := randomNetlist(rng, lib, 1+rng.Intn(40))
			want, err := refAnalyze(nl, lib)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Analyze(nl, lib, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := SameAnalysis(got, want); err != nil {
				t.Fatalf("library %d netlist %d: %v", li, k, err)
			}
		}
	}
}

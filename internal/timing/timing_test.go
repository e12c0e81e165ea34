package timing

import (
	"math"
	"testing"

	"lily/internal/geom"
	"lily/internal/library"
	"lily/internal/netlist"
	"lily/internal/wire"
)

// chain builds a linear chain of n inverters with unit spacing.
func chain(n int, spacing float64) *netlist.Netlist {
	lib := library.Big()
	nl := &netlist.Netlist{
		Name:    "chain",
		PINames: []string{"a"},
		PIPos:   []geom.Point{{X: 0, Y: 0}},
	}
	prev := netlist.Ref{IsPI: true, Index: 0}
	for i := 0; i < n; i++ {
		ci := nl.AddCell(&netlist.Cell{
			Name: "inv" + string(rune('0'+i)), Gate: lib.GateByName("inv"),
			Inputs: []netlist.Ref{prev},
			Pos:    geom.Point{X: float64(i+1) * spacing, Y: 0},
		})
		prev = netlist.Ref{Index: ci}
	}
	nl.POs = append(nl.POs, netlist.PO{Name: "y", Driver: prev,
		Pad: geom.Point{X: float64(n+1) * spacing, Y: 0}})
	return nl
}

func TestChainDelayMonotone(t *testing.T) {
	lib := library.Big()
	var prevDelay float64
	for _, n := range []int{1, 2, 4, 8} {
		nl := chain(n, 50)
		res, err := Analyze(nl, lib, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxDelay <= prevDelay {
			t.Errorf("chain %d delay %v not larger than %v", n, res.MaxDelay, prevDelay)
		}
		prevDelay = res.MaxDelay
		if len(res.CriticalPath) != n+1 {
			t.Errorf("chain %d critical path len %d, want %d", n, len(res.CriticalPath), n+1)
		}
		if res.CriticalPO != "y" {
			t.Errorf("critical PO = %s", res.CriticalPO)
		}
	}
}

func TestWireCapIncreasesDelay(t *testing.T) {
	lib := library.Big()
	short := chain(4, 10)
	long := chain(4, 2000)
	opt := DefaultOptions()
	rs, err := Analyze(short, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Analyze(long, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rl.MaxDelay <= rs.MaxDelay {
		t.Errorf("long wires (%v) not slower than short (%v)", rl.MaxDelay, rs.MaxDelay)
	}
}

func TestArrivalHandPropagation(t *testing.T) {
	// Single inverter, zero wire (PI, cell and pad co-located): load = 0,
	// delay = intrinsic only. Output rise comes from input fall.
	lib := library.Big()
	nl := chain(1, 0)
	res, err := Analyze(nl, lib, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inv := lib.GateByName("inv")
	// The PO net still has zero load; cell delay = intrinsic.
	want := math.Max(inv.Timing[0].IntrinsicRise, inv.Timing[0].IntrinsicFall)
	if math.Abs(res.MaxDelay-want) > 1e-9 {
		t.Errorf("delay = %v, want %v", res.MaxDelay, want)
	}
}

func TestLoadDependence(t *testing.T) {
	// One inverter driving k inverters: delay of the first stage grows
	// linearly with k in the pin capacitance. Every pin sits at one point,
	// so no net has wire load.
	lib := library.Big()
	build := func(k int) *netlist.Netlist {
		nl := &netlist.Netlist{Name: "fan", PINames: []string{"a"},
			PIPos: []geom.Point{{X: 0, Y: 0}}}
		drv := nl.AddCell(&netlist.Cell{Name: "drv", Gate: lib.GateByName("inv"),
			Inputs: []netlist.Ref{{IsPI: true, Index: 0}}})
		for i := 0; i < k; i++ {
			ci := nl.AddCell(&netlist.Cell{Name: "ld" + string(rune('a'+i)),
				Gate: lib.GateByName("inv"), Inputs: []netlist.Ref{{Index: drv}}})
			nl.POs = append(nl.POs, netlist.PO{Name: "y" + string(rune('a'+i)),
				Driver: netlist.Ref{Index: ci}})
		}
		return nl
	}
	r1, _ := Analyze(build(1), lib, DefaultOptions())
	r4, _ := Analyze(build(4), lib, DefaultOptions())
	inv := lib.GateByName("inv")
	extra := 3 * inv.InputCap * inv.Timing[0].ResistRise
	got := r4.MaxDelay - r1.MaxDelay
	if math.Abs(got-extra) > 1e-9 {
		t.Errorf("fanout-4 delta = %v, want %v", got, extra)
	}
}

func TestUnatenessRouting(t *testing.T) {
	lib := library.Big()
	inv := lib.GateByName("inv")
	if inv.Unate[0] != library.UnateNeg {
		t.Fatal("inverter should be negative unate")
	}
	// Input: rise at 10, fall at 0. Inverter output fall comes from input
	// rise (10 + fall intrinsic); output rise from input fall (0 + rise
	// intrinsic).
	in := []Arrival{{Rise: 10, Fall: 0}}
	var ba BlockArrival
	ba.Fill(inv, in)
	out := ba.Output(0)
	if math.Abs(out.Fall-(10+inv.Timing[0].IntrinsicFall)) > 1e-9 {
		t.Errorf("out.Fall = %v", out.Fall)
	}
	if math.Abs(out.Rise-(0+inv.Timing[0].IntrinsicRise)) > 1e-9 {
		t.Errorf("out.Rise = %v", out.Rise)
	}
	// XOR is binate: both phases of the input matter.
	xor := lib.GateByName("xor2")
	if xor.Unate[0] != library.Binate || xor.Unate[1] != library.Binate {
		t.Error("xor should be binate in both inputs")
	}
	and2 := lib.GateByName("and2")
	if and2.Unate[0] != library.UnatePos {
		t.Error("and2 should be positive unate")
	}
}

// TestBlockArrivalMatchesDirect: the block arrivals plus R_i·C_L give
// exactly the reference one-gate arrival, for every gate of the big
// library, at several loads, with tied and untied input phases.
func TestBlockArrivalMatchesDirect(t *testing.T) {
	lib := library.Big()
	var ba BlockArrival
	for _, g := range lib.Gates {
		for _, tie := range []bool{false, true} {
			in := make([]Arrival, g.NumInputs)
			for i := range in {
				in[i] = Arrival{Rise: float64(i) * 1.3, Fall: float64(i) * 0.7}
				if tie {
					in[i].Fall = in[i].Rise
				}
			}
			ba.Fill(g, in)
			for _, cl := range []float64{0, 0.1, 0.5, 2.0} {
				direct := refGateOutputArrival(g, in, cl)
				viaBlock := ba.Output(cl)
				if direct != viaBlock { // the same floats, not close ones
					t.Errorf("%s tie=%v cl=%v: direct %+v != block %+v", g.Name, tie, cl, direct, viaBlock)
				}
			}
		}
	}
}

func TestCriticalPathStartsAtPI(t *testing.T) {
	lib := library.Big()
	nl := chain(5, 25)
	res, err := Analyze(nl, lib, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalPath[0].Name != "a" || res.CriticalPath[0].Gate != "" {
		t.Errorf("path does not start at PI: %+v", res.CriticalPath[0])
	}
	// Arrivals along the path must be non-decreasing.
	for i := 1; i < len(res.CriticalPath); i++ {
		if res.CriticalPath[i].Arrival < res.CriticalPath[i-1].Arrival-1e-9 {
			t.Errorf("path arrival decreases at %d: %+v", i, res.CriticalPath)
		}
	}
}

func TestSpanningTreeModelOption(t *testing.T) {
	lib := library.Big()
	nl := chain(3, 100)
	var ws wire.Scratch
	for _, net := range nl.Nets() {
		// 2-pin nets are identical under both estimators.
		h := NetLoad(nl, lib, net, &ws, wire.ModelHPWLSteiner)
		s := NetLoad(nl, lib, net, &ws, wire.ModelSpanningTree)
		if h <= 0 || math.Abs(h-s) > 1e-12 {
			t.Errorf("2-pin net loads disagree: hpwl %v, rmst %v", h, s)
		}
	}
}

func TestNoPOsRejected(t *testing.T) {
	lib := library.Big()
	nl := &netlist.Netlist{Name: "empty", PINames: []string{"a"},
		PIPos: []geom.Point{{X: 0, Y: 0}}}
	if _, err := Analyze(nl, lib, DefaultOptions()); err == nil {
		t.Error("expected error for netlist without POs")
	}
}

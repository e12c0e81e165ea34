package fanout

import (
	"math/rand"
	"testing"

	"lily/internal/geom"
	"lily/internal/library"
	"lily/internal/netlist"
	"lily/internal/timing"
)

// highFanoutNetlist builds one inverter driving n spread-out loads.
func highFanoutNetlist(n int) *netlist.Netlist {
	lib := library.Big()
	nl := &netlist.Netlist{
		Name:    "fan",
		PINames: []string{"a"},
		PIPos:   []geom.Point{{X: 0, Y: 500}},
	}
	drv := nl.AddCell(&netlist.Cell{Name: "drv", Gate: lib.GateByName("inv"),
		Inputs: []netlist.Ref{{IsPI: true, Index: 0}}, Pos: geom.Point{X: 100, Y: 500}})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		ci := nl.AddCell(&netlist.Cell{
			Name: "ld" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Gate: lib.GateByName("inv"), Inputs: []netlist.Ref{{Index: drv}},
			Pos: geom.Point{X: 200 + rng.Float64()*800, Y: rng.Float64() * 1000},
		})
		nl.POs = append(nl.POs, netlist.PO{
			Name:   "y" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Driver: netlist.Ref{Index: ci},
			Pad:    geom.Point{X: 1100, Y: float64(i) * 10},
		})
	}
	return nl
}

func fanoutOf(nl *netlist.Netlist, driver netlist.Ref) int {
	n := 0
	for _, c := range nl.Cells {
		for _, r := range c.Inputs {
			if r == driver {
				n++
			}
		}
	}
	for _, po := range nl.POs {
		if po.Driver == driver {
			n++
		}
	}
	return n
}

func TestFanoutBounded(t *testing.T) {
	lib := library.Big()
	nl := highFanoutNetlist(30)
	opt := DefaultOptions()
	st, err := Optimize(nl, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.NetsBuffered == 0 || st.BuffersInserted == 0 {
		t.Fatalf("nothing buffered: %+v", st)
	}
	// Every driver now has bounded fanout.
	for ci := range nl.Cells {
		if fo := fanoutOf(nl, netlist.Ref{Index: ci}); fo > opt.MaxFanout {
			t.Errorf("cell %s fanout %d > %d", nl.Cells[ci].Name, fo, opt.MaxFanout)
		}
	}
	if fo := fanoutOf(nl, netlist.Ref{IsPI: true, Index: 0}); fo > opt.MaxFanout {
		t.Errorf("PI fanout %d > %d", fo, opt.MaxFanout)
	}
}

func TestFanoutPreservesFunction(t *testing.T) {
	lib := library.Big()
	nl := highFanoutNetlist(25)
	want, err := nl.Eval(map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(nl, lib, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	got, err := nl.Eval(map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if want[k] != got[k] {
			t.Fatalf("output %s changed", k)
		}
	}
	// And for a=false.
	want0 := !want["ya0"]
	got0, _ := nl.Eval(map[string]bool{"a": false})
	if got0["ya0"] != want0 {
		t.Error("inverted output wrong after buffering")
	}
}

func TestFanoutImprovesDelay(t *testing.T) {
	lib := library.Big()
	before := highFanoutNetlist(40)
	after := highFanoutNetlist(40)
	if _, err := Optimize(after, lib, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	opt := timing.DefaultOptions()
	rb, err := timing.Analyze(before, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := timing.Analyze(after, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ra.MaxDelay >= rb.MaxDelay {
		t.Errorf("buffering did not improve delay: %.2f -> %.2f", rb.MaxDelay, ra.MaxDelay)
	}
}

func TestSmallNetsUntouched(t *testing.T) {
	lib := library.Big()
	nl := highFanoutNetlist(4)
	cellsBefore := len(nl.Cells)
	st, err := Optimize(nl, lib, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.BuffersInserted != 0 || len(nl.Cells) != cellsBefore {
		t.Errorf("small net modified: %+v", st)
	}
}

func TestBadOptionsRejected(t *testing.T) {
	lib := library.Big()
	nl := highFanoutNetlist(10)
	if _, err := Optimize(nl, lib, Options{MaxFanout: 1}); err == nil {
		t.Error("MaxFanout=1 accepted")
	}
}

func TestClusterSinksRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sinks := make([]sink, 37)
	for i := range sinks {
		sinks[i] = sink{pos: geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}}
	}
	groups := clusterSinks(sinks, 6)
	total := 0
	for _, g := range groups {
		if len(g) > 6 {
			t.Errorf("group size %d > 6", len(g))
		}
		if len(g) < 1 {
			t.Error("empty group")
		}
		total += len(g)
	}
	if total != len(sinks) {
		t.Errorf("groups cover %d of %d sinks", total, len(sinks))
	}
}

func TestClusterSinksSpatial(t *testing.T) {
	// Two far-apart blobs must not be mixed within one group.
	var sinks []sink
	for i := 0; i < 8; i++ {
		sinks = append(sinks, sink{pos: geom.Point{X: float64(i), Y: 0}})
	}
	for i := 0; i < 8; i++ {
		sinks = append(sinks, sink{pos: geom.Point{X: 1000 + float64(i), Y: 0}})
	}
	groups := clusterSinks(sinks, 8)
	for _, g := range groups {
		left, right := false, false
		for _, s := range g {
			if s.pos.X < 500 {
				left = true
			} else {
				right = true
			}
		}
		if left && right {
			t.Errorf("group mixes distant blobs")
		}
	}
}

package lily_test

import (
	"context"
	"reflect"
	"testing"

	"lily"
	"lily/internal/netlist"
)

// refNets is the per-driver reference for netlist.Nets: a Net value per
// PI and per cell, sink and pad lists grown by append, and the live nets
// appended to a nil result.
func refNets(nl *netlist.Netlist) []netlist.Net {
	piNets := make([]netlist.Net, len(nl.PINames))
	cellNets := make([]netlist.Net, len(nl.Cells))
	for i := range piNets {
		piNets[i].Driver = netlist.Ref{IsPI: true, Index: i}
	}
	for i := range cellNets {
		cellNets[i].Driver = netlist.Ref{Index: i}
	}
	at := func(r netlist.Ref) *netlist.Net {
		if r.IsPI {
			return &piNets[r.Index]
		}
		return &cellNets[r.Index]
	}
	for ci, c := range nl.Cells {
		for pin, r := range c.Inputs {
			n := at(r)
			n.Sinks = append(n.Sinks, netlist.SinkPin{Cell: ci, Pin: pin})
		}
	}
	for _, po := range nl.POs {
		n := at(po.Driver)
		n.POPads = append(n.POPads, po.Pad)
		n.PONames = append(n.PONames, po.Name)
	}
	var out []netlist.Net
	for _, n := range append(piNets, cellNets...) {
		if len(n.Sinks)+len(n.POPads) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// TestNetsMatchReference: on the mapped netlist of every golden mapping
// (each paper circuit at both ASIC objectives and area-mode LUT4/LUT6,
// each midsize carrier in area mode at every target), the two-pass Nets
// is deep-equal to the reference. It runs one goroutine over data no
// other test shares, so it skips itself under -race, where it would
// only add minutes; -short keeps the golden harness's small circuits.
func TestNetsMatchReference(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine algorithm check; nothing for the race detector")
	}
	type tc struct {
		circuit string
		opt     lily.FlowOptions
	}
	var cases []tc
	for _, c := range append(lily.BenchmarkNames(), scaleGoldenCircuits...) {
		if testing.Short() && (shortSkip[c] || c == "mid5k" || c == "mid10k") {
			continue
		}
		for _, tgt := range []lily.TechnologyTarget{lily.TargetASIC, lily.TargetLUT4, lily.TargetLUT6} {
			cases = append(cases, tc{c, lily.FlowOptions{Mapper: lily.MapperLily, Target: tgt}})
		}
		if c != "mid5k" && c != "mid10k" {
			cases = append(cases, tc{c, lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveDelay}})
		}
	}
	for _, k := range cases {
		c, err := lily.GenerateBenchmark(k.circuit)
		if err != nil {
			t.Fatal(err)
		}
		nl, err := lily.MappedNetlist(context.Background(), c, k.opt)
		if err != nil {
			t.Fatalf("%s %v: %v", k.circuit, k.opt.Target, err)
		}
		if got, want := nl.Nets(), refNets(nl); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %v/%v: Nets differs from the reference", k.circuit, k.opt.Objective, k.opt.Target)
		}
	}
}

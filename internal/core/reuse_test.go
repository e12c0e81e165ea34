package core

import (
	"context"
	"testing"

	"lily/internal/bench"
	"lily/internal/library"
	"lily/internal/obs"
	"lily/internal/place"
	"lily/internal/wire"
)

// TestReuseIsExact maps the 15 paper circuits with checkReuse set, so
// every node evaluation the memo skips and every candidate cost it
// supplies is also computed afresh and must match bit for bit (the run
// fails otherwise). It covers both modes at the ASIC and 6-LUT targets,
// periodic re-placement and the two-pass delay flow, plus the other
// update rules and wire models away from C5315, and requires the
// reuse to be real: some candidates reused, and never more than the
// unpruned ones.
func TestReuseIsExact(t *testing.T) {
	checkReuse = true
	defer func() { checkReuse = false }()
	lib := library.Big()
	type variant struct {
		name string
		opt  func() Options
	}
	variants := []variant{
		{"area/asic", func() Options { return DefaultOptions(ModeArea) }},
		{"delay/asic", func() Options { return DefaultOptions(ModeDelay) }},
		{"area/lut6", func() Options { o := DefaultOptions(ModeArea); o.Target = TargetLUT6; return o }},
		{"delay/lut6", func() Options { o := DefaultOptions(ModeDelay); o.Target = TargetLUT6; return o }},
		{"area/replace5", func() Options { o := DefaultOptions(ModeArea); o.ReplaceEvery = 5; return o }},
		{"delay/replace5", func() Options { o := DefaultOptions(ModeDelay); o.ReplaceEvery = 5; return o }},
		{"delay/two-pass", func() Options { o := DefaultOptions(ModeDelay); o.TwoPassDelay = true; return o }},
	}
	// The other update rules and wire models run away from C5315, which
	// alone takes half the test's time.
	others := []variant{
		{"area/median-fans/spanning-tree", func() Options {
			o := DefaultOptions(ModeArea)
			o.Update, o.WireModel = MedianFans, wire.ModelSpanningTree
			return o
		}},
		{"delay/cm-of-merged/spanning-tree", func() Options {
			o := DefaultOptions(ModeDelay)
			o.Update, o.WireModel = CMOfMerged, wire.ModelSpanningTree
			return o
		}},
	}
	var total uint64
	for _, p := range bench.Profiles() {
		if testing.Short() && p.Name == "C5315" {
			continue // half the test's time; the full run covers it
		}
		_, sub := subjectFor(t, p.Name)
		pl, err := place.Global(sub, baseWidth(sub, lib), lib.RowHeight, place.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		vs := variants
		if p.Name != "C5315" {
			vs = append(vs[:len(vs):len(vs)], others...)
		}
		for _, v := range vs {
			fm := obs.RegisterFlowMetrics(obs.NewRegistry())
			ctx := obs.ContextWithFlowMetrics(context.Background(), fm)
			if _, err := MapPlacedContext(ctx, sub, lib, pl, v.opt()); err != nil {
				t.Fatalf("%s %s: %v", p.Name, v.name, err)
			}
			evals, pruned, reused := fm.WireEvals.Value(), fm.Pruned.Value(), fm.Reused.Value()
			if reused > evals-pruned {
				t.Errorf("%s %s: reused %d > wire_evals %d - pruned %d", p.Name, v.name, reused, evals, pruned)
			}
			total += reused
		}
	}
	if total == 0 {
		t.Error("no candidate cost was reused anywhere")
	}
}

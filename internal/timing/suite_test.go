package timing_test

import (
	"bytes"
	"testing"

	"lily"
	"lily/internal/library"
	"lily/internal/netlist"
	"lily/internal/timing"
)

// TestAnalyzeMatchesReferenceOnSuite checks Analyze bit for bit against
// the reference analysis on the mapped, placed netlist of every paper
// circuit, through Lily and MIS in area and delay mode: arrivals, loads,
// worst delay, critical output and critical path. -short keeps the
// circuits of at most 500 nodes; -race skips it, as it runs one goroutine.
func TestAnalyzeMatchesReferenceOnSuite(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine algorithm check; nothing for the race detector")
	}
	lib := library.Big()
	for _, circuit := range lily.BenchmarkNames() {
		c, err := lily.GenerateBenchmark(circuit)
		if err != nil {
			t.Fatal(err)
		}
		if testing.Short() && c.Stats().Nodes > 500 {
			continue
		}
		for _, m := range []lily.Mapper{lily.MapperLily, lily.MapperMIS} {
			for _, obj := range []lily.Objective{lily.ObjectiveArea, lily.ObjectiveDelay} {
				var buf bytes.Buffer
				if _, err := lily.WriteMappedBLIF(c, lily.FlowOptions{Mapper: m, Objective: obj}, &buf); err != nil {
					t.Fatalf("%s/%s/%s: %v", circuit, obj, m, err)
				}
				nl, err := netlist.ParseBLIF(&buf, lib)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", circuit, obj, m, err)
				}
				want, err := timing.RefAnalyze(nl, lib)
				if err != nil {
					t.Fatal(err)
				}
				got, err := timing.Analyze(nl, lib, timing.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				if err := timing.SameAnalysis(got, want); err != nil {
					t.Errorf("%s/%s/%s: %v", circuit, obj, m, err)
				}
			}
		}
	}
}

// BenchmarkAnalyze times one static timing analysis of C5315 as Lily maps
// and places it in area mode.
func BenchmarkAnalyze(b *testing.B) {
	lib := library.Big()
	c, err := lily.GenerateBenchmark("C5315")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := lily.WriteMappedBLIF(c, lily.FlowOptions{}, &buf); err != nil {
		b.Fatal(err)
	}
	nl, err := netlist.ParseBLIF(&buf, lib)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timing.Analyze(nl, lib, timing.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// Scale smoke test: one large generated circuit through the complete
// pipeline — premap, layout-driven mapping, multilevel placement, layout,
// timing — twice, asserting the two runs produce byte-identical mapped
// BLIF and, when a budget is set, that each run fits the wall-clock
// budget. This is the frontier gate behind the ROADMAP's "production
// scale" yardstick: the CI scale-smoke job runs it at gen100k with a
// 60-second budget (LILY_SCALE_PROFILE=gen100k LILY_SCALE_BUDGET_S=60),
// while the default tier-1 run covers gen50k with no budget so slow or
// shared machines cannot flake.
package lily_test

import (
	"bytes"
	"os"
	"strconv"
	"testing"
	"time"

	"lily"
)

func TestScaleSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("scale smoke excluded under -race (covered raceless by the scale-smoke CI job)")
	}
	if testing.Short() {
		t.Skip("scale smoke skipped under -short")
	}
	profile := os.Getenv("LILY_SCALE_PROFILE")
	if profile == "" {
		profile = "gen50k"
	}
	var budget time.Duration
	if s := os.Getenv("LILY_SCALE_BUDGET_S"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil || secs <= 0 {
			t.Fatalf("bad LILY_SCALE_BUDGET_S %q", s)
		}
		budget = time.Duration(secs) * time.Second
	}

	c, err := lily.GenerateBenchmark(profile)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	t.Logf("%s: %d PIs, %d POs, %d nodes, depth %d", profile, st.PIs, st.POs, st.Nodes, st.Depth)

	run := func(i int) []byte {
		opt := lily.FlowOptions{Mapper: lily.MapperLily, Objective: lily.ObjectiveArea}
		var buf bytes.Buffer
		start := time.Now()
		// Clone: a flow mutates nothing in the circuit, but the isolation
		// mirrors how the engine runs concurrent jobs.
		res, err := lily.WriteMappedBLIF(c.Clone(), opt, &buf)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		elapsed := time.Since(start)
		t.Logf("run %d: %v, %d gates, %d subject nodes, chip %.3f mm²",
			i, elapsed, res.Gates, res.SubjectNodes, res.ChipAreaMM2)
		if budget > 0 && elapsed > budget {
			t.Errorf("run %d took %v, budget %v", i, elapsed, budget)
		}
		return buf.Bytes()
	}
	// Run-to-run determinism at frontier scale: the GOMAXPROCS soak's
	// property, extended to a ≥50k-gate circuit.
	first := run(1)
	second := run(2)
	if !bytes.Equal(first, second) {
		t.Fatal("two runs of the same scale pipeline produced different mapped BLIF")
	}
}

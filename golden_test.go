// Golden equivalence tests: every benchmark circuit is mapped in both Area
// and Delay mode, formally verified against its subject graph (the flow's
// VerifyEquivalence step runs internal/equiv), and compared against pinned
// goldens: the SHA-256 of the mapped, placed BLIF output, the paper's
// cost metrics to 1e-9, and the mapper's deterministic work counters
// exactly. The BLIF hash catches any behavioral drift in the mapper —
// the hot-path optimizations of the cover DP must keep output
// byte-identical — while the metric goldens catch cost regressions that a
// purely functional check would miss. The wire-cost evaluation and cone
// counts pin how much work the cover DP did to get there, and the
// verification method pins how the output was proved: cone by cone
// through the subject graph, or by whole-circuit BDDs.
//
// Refresh the goldens (only after an intentional mapper change) with
//
//	go test -run TestGolden -update-golden .
package lily_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"lily"
	"lily/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden.json from the current mapper output")

// goldenEntry pins one (circuit, objective) mapping outcome.
type goldenEntry struct {
	// BLIFSHA256 is the hash of the WriteMappedBLIF byte stream.
	BLIFSHA256 string `json:"blif_sha256"`
	// Gates is the mapped cell count.
	Gates int `json:"gates"`
	// WireEvals is the cover DP's wire-cost evaluation count (one per
	// candidate match considered) and Cones its committed-cone count.
	// Both are deterministic, so they are pinned exactly.
	WireEvals uint64 `json:"wire_evals,omitempty"`
	Cones     int    `json:"cones,omitempty"`
	// Pruned counts the candidates among WireEvals that the area-mode
	// lower bound skipped; it is deterministic, so it is pinned exactly
	// too (absent, i.e. 0, for delay mode).
	Pruned uint64 `json:"pruned,omitempty"`
	// Reused counts the candidates among WireEvals whose exact cost the
	// DP took from an earlier evaluation with unchanged inputs (absent,
	// i.e. 0, for MIS); neither pruned nor computed, so it never exceeds
	// WireEvals - Pruned.
	Reused uint64 `json:"reused,omitempty"`
	// VerifyMethod is how equivalence was established: "compositional"
	// (proved cone by cone) or "bdd" (proved by whole-circuit BDDs after
	// a local check failed).
	VerifyMethod string `json:"verify_method,omitempty"`
	// The paper's cost metrics, asserted to 1e-9.
	ActiveAreaMM2 float64 `json:"active_area_mm2"`
	ChipAreaMM2   float64 `json:"chip_area_mm2"`
	WirelengthMM  float64 `json:"wirelength_mm"`
	DelayNS       float64 `json:"delay_ns"`
}

const goldenPath = "testdata/golden.json"

// goldenTol is the absolute tolerance on metric goldens. The mapper is
// deterministic, so stored values should reproduce exactly; 1e-9 allows
// only for JSON round-trip rounding of float64 values.
const goldenTol = 1e-9

// shortSkip lists the circuits skipped under -short: the four largest
// pipelines dominate the suite's wall time, and the remaining eleven keep
// the same code paths hot for quick local iteration. CI and the tier-1
// `go test ./...` run everything.
var shortSkip = map[string]bool{
	"C5315": true, "apex3": true, "apex6": true, "C3540": true,
}

func goldenKey(circuit string, obj lily.Objective) string {
	return fmt.Sprintf("%s/%s", circuit, obj)
}

// lutGoldenKey names a LUT-target golden. ASIC keys keep the historical
// two-part form so the PR 8 entries (and hashes) survive verbatim.
func lutGoldenKey(circuit string, obj lily.Objective, tgt lily.TechnologyTarget) string {
	return fmt.Sprintf("%s/%s/%s", circuit, obj, tgt)
}

func loadGoldens(t *testing.T) map[string]goldenEntry {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (run `go test -run TestGolden -update-golden .` to create): %v", err)
	}
	var m map[string]goldenEntry
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return m
}

func writeGoldens(t *testing.T, m map[string]goldenEntry) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d goldens to %s", len(m), goldenPath)
}

// mergeGoldens folds freshly computed entries into the stored golden
// file, preserving every key the current run did not produce. Refreshes
// merge rather than rebuild so `-update-golden` with a -run filter (or a
// partial harness: paper suite, scale suite, generated-BLIF pins) cannot
// silently drop the other harnesses' entries.
func mergeGoldens(t *testing.T, entries map[string]goldenEntry) {
	t.Helper()
	m := make(map[string]goldenEntry)
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("parse %s: %v", goldenPath, err)
		}
	}
	for k, v := range entries {
		m[k] = v
	}
	writeGoldens(t, m)
}

// mapGolden runs the pipeline for one (circuit, mapper, objective, target)
// with formal equivalence checking enabled and returns the pinned entry.
// A private flow-metrics bundle reads back the DP's wire-cost count.
func mapGolden(t *testing.T, circuit string, gc goldenCase) goldenEntry {
	t.Helper()
	c, err := lily.GenerateBenchmark(circuit)
	if err != nil {
		t.Fatal(err)
	}
	fm := obs.RegisterFlowMetrics(obs.NewRegistry())
	ctx := obs.ContextWithFlowMetrics(context.Background(), fm)
	var buf bytes.Buffer
	res, err := lily.WriteMappedBLIFContext(ctx, c, lily.FlowOptions{
		Mapper:            gc.mapper,
		Objective:         gc.obj,
		Target:            gc.tgt,
		VerifyEquivalence: true, // internal/equiv: compositional proof, BDD where a local check fails
	}, &buf)
	if err != nil {
		t.Fatalf("%s: %v", gc.key, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return goldenEntry{
		BLIFSHA256:    hex.EncodeToString(sum[:]),
		Gates:         res.Gates,
		WireEvals:     fm.WireEvals.Value(),
		Pruned:        fm.Pruned.Value(),
		Reused:        fm.Reused.Value(),
		Cones:         res.LilyConesProcessed,
		VerifyMethod:  res.VerifyMethod,
		ActiveAreaMM2: res.ActiveAreaMM2,
		ChipAreaMM2:   res.ChipAreaMM2,
		WirelengthMM:  res.WirelengthMM,
		DelayNS:       res.DelayNS,
	}
}

// goldenCase is one pinned (mapper, objective, target) mapping of a
// circuit under its golden key.
type goldenCase struct {
	mapper lily.Mapper
	obj    lily.Objective
	tgt    lily.TechnologyTarget
	key    string
}

// goldenCases enumerates the pinned (objective, target, key) grid: the
// ASIC target at both objectives (the paper's tables), and each LUT
// target in area mode (LUT count is the FPGA resource metric; delay-mode
// LUT output is covered by the determinism soak).
func goldenCases(circuit string) []goldenCase {
	return []goldenCase{
		{lily.MapperLily, lily.ObjectiveArea, lily.TargetASIC, goldenKey(circuit, lily.ObjectiveArea)},
		{lily.MapperLily, lily.ObjectiveDelay, lily.TargetASIC, goldenKey(circuit, lily.ObjectiveDelay)},
		{lily.MapperLily, lily.ObjectiveArea, lily.TargetLUT4, lutGoldenKey(circuit, lily.ObjectiveArea, lily.TargetLUT4)},
		{lily.MapperLily, lily.ObjectiveArea, lily.TargetLUT6, lutGoldenKey(circuit, lily.ObjectiveArea, lily.TargetLUT6)},
	}
}

// misGoldenCases pins the MIS 2.1 baseline, the other half of Tables 1–2,
// at both objectives on the ASIC target (the only one MIS maps to).
func misGoldenCases(circuit string) []goldenCase {
	key := func(obj lily.Objective) string { return fmt.Sprintf("%s/%s/%s", circuit, obj, lily.MapperMIS) }
	return []goldenCase{
		{lily.MapperMIS, lily.ObjectiveArea, lily.TargetASIC, key(lily.ObjectiveArea)},
		{lily.MapperMIS, lily.ObjectiveDelay, lily.TargetASIC, key(lily.ObjectiveDelay)},
	}
}

// runGoldenMappings is the shared golden harness: it maps every circuit
// at each of its cases and compares against the stored entry in a subtest
// named by the golden key, or with -update-golden merges fresh entries
// into the golden file. skip names circuits to skip under -short.
func runGoldenMappings(t *testing.T, circuits []string, cases func(string) []goldenCase, skip func(string) bool) {
	t.Helper()
	if *updateGolden {
		goldens := make(map[string]goldenEntry)
		for _, circuit := range circuits {
			for _, c := range cases(circuit) {
				goldens[c.key] = mapGolden(t, circuit, c)
			}
		}
		mergeGoldens(t, goldens)
		return
	}

	goldens := loadGoldens(t)
	for _, circuit := range circuits {
		for _, c := range cases(circuit) {
			circuit, c := circuit, c
			t.Run(c.key, func(t *testing.T) {
				if testing.Short() && skip(circuit) {
					t.Skipf("skipping %s under -short (covered by the full run)", circuit)
				}
				want, ok := goldens[c.key]
				if !ok {
					t.Fatalf("no golden for %s (refresh with -update-golden)", c.key)
				}
				compareGolden(t, c.key, mapGolden(t, circuit, c), want)
			})
		}
	}
}

// compareGolden reports every field of got that differs from the pinned
// entry want: the BLIF hash, gate count, work counters and verification
// method exactly, the cost metrics to goldenTol.
func compareGolden(t *testing.T, key string, got, want goldenEntry) {
	t.Helper()
	if got.BLIFSHA256 != want.BLIFSHA256 {
		t.Errorf("%s: mapped BLIF hash drifted: got %s want %s\n"+
			"the mapper's output changed — if intentional, refresh with -update-golden",
			key, got.BLIFSHA256, want.BLIFSHA256)
	}
	if got.Gates != want.Gates {
		t.Errorf("%s: gates = %d, want %d", key, got.Gates, want.Gates)
	}
	if got.WireEvals != want.WireEvals {
		t.Errorf("%s: wire_evals = %d, want %d (the cover DP considered a different number of candidates)",
			key, got.WireEvals, want.WireEvals)
	}
	if got.Pruned != want.Pruned {
		t.Errorf("%s: pruned = %d, want %d (the cover DP's lower bound skipped a different number of candidates)",
			key, got.Pruned, want.Pruned)
	}
	if got.Reused != want.Reused {
		t.Errorf("%s: reused = %d, want %d (the cover DP reused a different number of candidate costs)",
			key, got.Reused, want.Reused)
	}
	if got.Reused > got.WireEvals-got.Pruned {
		t.Errorf("%s: reused = %d exceeds wire_evals - pruned = %d", key, got.Reused, got.WireEvals-got.Pruned)
	}
	if got.Cones != want.Cones {
		t.Errorf("%s: cones = %d, want %d", key, got.Cones, want.Cones)
	}
	if got.VerifyMethod != want.VerifyMethod {
		t.Errorf("%s: verify_method = %q, want %q", key, got.VerifyMethod, want.VerifyMethod)
	}
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > goldenTol {
			t.Errorf("%s: %s = %.12f, want %.12f (|Δ| = %g > %g)",
				key, name, got, want, math.Abs(got-want), goldenTol)
		}
	}
	check("active_area_mm2", got.ActiveAreaMM2, want.ActiveAreaMM2)
	check("chip_area_mm2", got.ChipAreaMM2, want.ChipAreaMM2)
	check("wirelength_mm", got.WirelengthMM, want.WirelengthMM)
	check("delay_ns", got.DelayNS, want.DelayNS)
}

// TestGoldenMapping is the table-driven golden harness: every benchmark
// circuit, both objectives, every technology target, verified and pinned.
func TestGoldenMapping(t *testing.T) {
	circuits := lily.BenchmarkNames()
	sort.Strings(circuits)
	runGoldenMappings(t, circuits, goldenCases, func(circuit string) bool { return shortSkip[circuit] })
}

// TestGoldenMappingMIS pins the MIS baseline the same way: every benchmark
// circuit, area and delay mode, verified, by BLIF hash and cost metrics.
// It skips itself under -race: each mapping runs on one goroutine, and
// TestGoldenMapping already drives the shared flow under the detector.
func TestGoldenMappingMIS(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine mappings; nothing for the race detector")
	}
	circuits := lily.BenchmarkNames()
	sort.Strings(circuits)
	runGoldenMappings(t, circuits, misGoldenCases, func(circuit string) bool { return shortSkip[circuit] })
}

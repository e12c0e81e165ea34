// Scale-suite goldens: the two midsize carriers (mid5k, mid10k) are
// mapped at every technology target in area mode and pinned exactly like
// the paper suite, and every scale generator's *input* BLIF is pinned by
// hash — the 50k–500k-gate circuits are too large to map in the golden
// harness, but a drifting generator would silently invalidate every
// benchmark number published against them, so the seed → bytes contract
// is enforced here.
//
// Refresh (intentional changes only) with
//
//	go test -run 'TestGoldenScaleMapping|TestGoldenGeneratedBLIF' -update-golden .
//
// Updates merge into testdata/golden.json, so a scale refresh never
// touches the paper-suite entries (and vice versa).
package lily_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"lily"
)

// scaleGoldenCircuits are the midsize carriers small enough to run the
// full verified mapping pipeline in the golden harness.
var scaleGoldenCircuits = []string{"mid5k", "mid10k"}

// scaleGoldenCases is the (objective, target) grid pinned per carrier:
// area mode at every technology target. Delay mode at these sizes is
// covered by the determinism soak, not a golden.
func scaleGoldenCases(circuit string) []goldenCase {
	return []goldenCase{
		{lily.MapperLily, lily.ObjectiveArea, lily.TargetASIC, goldenKey(circuit, lily.ObjectiveArea)},
		{lily.MapperLily, lily.ObjectiveArea, lily.TargetLUT4, lutGoldenKey(circuit, lily.ObjectiveArea, lily.TargetLUT4)},
		{lily.MapperLily, lily.ObjectiveArea, lily.TargetLUT6, lutGoldenKey(circuit, lily.ObjectiveArea, lily.TargetLUT6)},
	}
}

// TestGoldenScaleMapping extends the golden harness to the midsize
// generated circuits: mapped, equivalence-verified, and pinned by BLIF
// hash, cost metrics and work counters.
func TestGoldenScaleMapping(t *testing.T) {
	runGoldenMappings(t, scaleGoldenCircuits, scaleGoldenCases, func(circuit string) bool { return circuit == "mid10k" })
}

// genGoldenEntry pins a scale generator's output: the SHA-256 of the
// generated circuit's BLIF serialization and its node count (stored in
// the Gates field; the mapping metrics stay zero — nothing is mapped).
func genGoldenEntry(t *testing.T, name string) goldenEntry {
	t.Helper()
	c, err := lily.GenerateBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return goldenEntry{
		BLIFSHA256: hex.EncodeToString(sum[:]),
		Gates:      c.Stats().Nodes,
	}
}

// TestGoldenGeneratedBLIF pins the seed → BLIF bytes contract of every
// scale generator under "gen/<name>" keys.
func TestGoldenGeneratedBLIF(t *testing.T) {
	if *updateGolden {
		goldens := make(map[string]goldenEntry)
		for _, name := range lily.ScaleBenchmarkNames() {
			goldens["gen/"+name] = genGoldenEntry(t, name)
		}
		mergeGoldens(t, goldens)
		return
	}

	goldens := loadGoldens(t)
	for _, name := range lily.ScaleBenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "gen200k" || name == "gen500k") {
				t.Skip("skipping the largest generators under -short")
			}
			want, ok := goldens["gen/"+name]
			if !ok {
				t.Fatalf("no golden for gen/%s (refresh with -update-golden)", name)
			}
			got := genGoldenEntry(t, name)
			if got.BLIFSHA256 != want.BLIFSHA256 {
				t.Errorf("generated BLIF hash drifted: got %s want %s\n"+
					"the generator's output changed — if intentional, refresh with -update-golden "+
					"and re-baseline every benchmark number published against this circuit",
					got.BLIFSHA256, want.BLIFSHA256)
			}
			if got.Gates != want.Gates {
				t.Errorf("node count = %d, want %d", got.Gates, want.Gates)
			}
		})
	}
}

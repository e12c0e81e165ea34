// Many-output shape test: a generated circuit in which every node is a
// primary output, so the cover has as many PO cones as nodes and cones
// overlap heavily. The cone order, the exit-line matrix and the
// re-evaluation of shared nodes across cones all grow with the output
// count; pinning their deterministic work counters at two sizes makes a
// super-linear regression fail here instead of showing only as wall
// clock. A mapper change that moves these values on purpose updates the
// constants below and records the old and new values in CHANGES.md.
package lily_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lily"
	"lily/internal/obs"
)

// manyOutputsBLIF builds the shape: 64 inputs and n two-input AND or XOR
// nodes, each drawing two distinct fanins from the 40 most recent
// signals, every node an output, from a fixed seed.
func manyOutputsBLIF(n int) string {
	const pis, window = 64, 40
	rng := rand.New(rand.NewSource(1))
	signals := make([]string, 0, pis+n)
	var b strings.Builder
	fmt.Fprintf(&b, ".model many%d\n.inputs", n)
	for i := 0; i < pis; i++ {
		signals = append(signals, fmt.Sprintf("x%d", i))
		b.WriteString(" " + signals[i])
	}
	b.WriteString("\n.outputs")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " n%d", i)
	}
	b.WriteString("\n")
	for i := 0; i < n; i++ {
		recent := signals[len(signals)-window:]
		a := rng.Intn(window)
		c := rng.Intn(window - 1)
		if c >= a {
			c++
		}
		name := fmt.Sprintf("n%d", i)
		fmt.Fprintf(&b, ".names %s %s %s\n", recent[a], recent[c], name)
		if rng.Intn(2) == 0 {
			b.WriteString("11 1\n")
		} else {
			b.WriteString("10 1\n01 1\n")
		}
		signals = append(signals, name)
	}
	b.WriteString(".end\n")
	return b.String()
}

// manyOutputsWork is what the shape test pins for one size: the hash of
// the mapped BLIF, the cover DP's candidate, pruned and reused counts, the
// committed cones and reincarnations, and the sum of the subject
// graph's exit-line matrix.
type manyOutputsWork struct {
	blifSHA256     string
	wireEvals      uint64
	pruned         uint64
	reused         uint64
	cones          int
	reincarnations int
	exitLines      int
}

func TestManyOutputsWork(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want manyOutputsWork
	}{
		{250, manyOutputsWork{
			blifSHA256: "9419ea5029df6ba5723200b4a54f2bd895cde13ee382cbc5c35caeafbdbb8b16",
			wireEvals:  300515, pruned: 142147, reused: 84882,
			cones: 250, reincarnations: 96,
			exitLines: 918870,
		}},
		{500, manyOutputsWork{
			blifSHA256: "2df45961293b6ceff02efbae2289013e77618a348f731431444d5dea143dd638",
			wireEvals:  2007376, pruned: 985019, reused: 622432,
			cones: 500, reincarnations: 172,
			exitLines: 5214446,
		}},
	} {
		t.Run(fmt.Sprint(tc.n), func(t *testing.T) {
			c, err := lily.LoadBLIF(strings.NewReader(manyOutputsBLIF(tc.n)))
			if err != nil {
				t.Fatal(err)
			}
			fm := obs.RegisterFlowMetrics(obs.NewRegistry())
			ctx := obs.ContextWithFlowMetrics(context.Background(), fm)
			var buf bytes.Buffer
			res, err := lily.WriteMappedBLIFContext(ctx, c, lily.FlowOptions{
				Mapper:    lily.MapperLily,
				Objective: lily.ObjectiveArea,
				Target:    lily.TargetASIC,
			}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			exitLines, err := lily.SubjectExitLines(c)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got := manyOutputsWork{
				blifSHA256:     hex.EncodeToString(sum[:]),
				wireEvals:      fm.WireEvals.Value(),
				pruned:         fm.Pruned.Value(),
				reused:         fm.Reused.Value(),
				cones:          res.LilyConesProcessed,
				reincarnations: res.LilyReincarnations,
				exitLines:      exitLines,
			}
			if got.reused > got.wireEvals-got.pruned {
				t.Errorf("n = %d: reused %d exceeds wire_evals - pruned = %d", tc.n, got.reused, got.wireEvals-got.pruned)
			}
			if got != tc.want {
				t.Errorf("n = %d: work drifted:\n got %+v\nwant %+v", tc.n, got, tc.want)
			}
		})
	}
}

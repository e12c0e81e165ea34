package place

import (
	"context"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/logic"
)

// BenchmarkGlobalC5315 places the paper's runtime example: the pre-mapped
// C5315 network (§5 reports ~3 minutes on a DEC3100 for 1892 gates).
func BenchmarkGlobalC5315(b *testing.B) {
	p, _ := bench.ProfileByName("C5315")
	src := bench.Generate(p)
	res, err := decomp.Premap(src)
	if err != nil {
		b.Fatal(err)
	}
	sub := res.Inchoate
	b.ReportMetric(float64(sub.NumLogic()), "gates")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Global(sub, func(logic.NodeID) float64 { return 24 }, 60, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFMPass(b *testing.B) {
	src := bench.Random(8, 30, 15, 400, 4)
	res, err := decomp.Premap(src)
	if err != nil {
		b.Fatal(err)
	}
	sub := res.Inchoate
	// Build a hypergraph over the subject nodes.
	idx := make(map[logic.NodeID]int)
	h := &Hypergraph{}
	for _, nd := range sub.Nodes {
		if nd != nil && nd.Kind == logic.KindLogic {
			idx[nd.ID] = len(h.Areas)
			h.Areas = append(h.Areas, 1)
		}
	}
	for _, nd := range sub.Nodes {
		if nd == nil {
			continue
		}
		var pins []int
		if i, ok := idx[nd.ID]; ok {
			pins = append(pins, i)
		}
		for _, fo := range sub.Fanouts(nd.ID) {
			if i, ok := idx[fo]; ok {
				pins = append(pins, i)
			}
		}
		if len(pins) >= 2 {
			h.Nets = append(h.Nets, pins)
		}
	}
	part := make([]int, len(h.Areas))
	for i := range part {
		part[i] = i % 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := append([]int(nil), part...)
		FM(h, work, 0.1, 2)
	}
}

func BenchmarkCGSolve(b *testing.B) {
	// A 1000-vertex chain anchored at both ends.
	n := 1000
	nets := []netDef{twoPin(cellPin(0), padPin(0, 0)), twoPin(cellPin(n-1), padPin(1000, 0))}
	for i := 0; i+1 < n; i++ {
		nets = append(nets, twoPin(cellPin(i), cellPin(i+1)))
	}
	q := newQuadSystem(n, nets)
	q.load(nil, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		if _, err := q.solve(context.Background(), q.rhsX, x, 1e-6, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

package place

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/geom"
	"lily/internal/logic"
	"lily/internal/obs"
)

// refEntry and refQuad are the adjacency-list reference for quadSystem:
// the whole system is rebuilt per solve, each row's coefficients
// appended coupling by coupling, pads and anchors added to the diagonal
// and right-hand sides as they come.
type refEntry struct {
	j int
	w float64
}

type refQuad struct {
	diag       []float64
	adj        [][]refEntry
	rhsX, rhsY []float64
}

func refSystem(n int, nets []netDef, anchor []geom.Point, anchorW float64) *refQuad {
	q := &refQuad{
		diag: make([]float64, n),
		adj:  make([][]refEntry, n),
		rhsX: make([]float64, n),
		rhsY: make([]float64, n),
	}
	fixed := func(i int, w float64, at geom.Point) {
		q.diag[i] += w
		q.rhsX[i] += w * at.X
		q.rhsY[i] += w * at.Y
	}
	couple := func(a, b netPin, w float64) {
		ai, bi := pinCell(a), pinCell(b)
		switch {
		case ai >= 0 && bi >= 0:
			if ai == bi {
				return
			}
			q.diag[ai] += w
			q.diag[bi] += w
			q.adj[ai] = append(q.adj[ai], refEntry{bi, -w})
			q.adj[bi] = append(q.adj[bi], refEntry{ai, -w})
		case ai >= 0:
			fixed(ai, w, b.pad.pos)
		case bi >= 0:
			fixed(bi, w, a.pad.pos)
		}
	}
	for _, nd := range nets {
		k := len(nd.pins)
		if k <= 8 {
			w := 2.0 / float64(k)
			for a := 0; a < k; a++ {
				for b := a + 1; b < k; b++ {
					couple(nd.pins[a], nd.pins[b], w)
				}
			}
		} else {
			for b := 1; b < k; b++ {
				couple(nd.pins[0], nd.pins[b], 1.0)
			}
		}
	}
	if anchor != nil {
		for i := range anchor {
			fixed(i, anchorW, anchor[i])
		}
	}
	return q
}

func (q *refQuad) multiply(v, out []float64) {
	for i := range q.diag {
		s := q.diag[i] * v[i]
		for _, e := range q.adj[i] {
			s += e.w * v[e.j]
		}
		out[i] = s
	}
}

// subjectPlacer sets up (without running) the flat placement problem of
// a premapped benchmark.
func subjectPlacer(t *testing.T, name string, ctx context.Context) *placer {
	t.Helper()
	prof, ok := bench.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	res, err := decomp.Premap(bench.Generate(prof))
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlacer(ctx, res.Inchoate, func(logic.NodeID) float64 { return 24 }, 60, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestQuadSystemMatchesAdjacency: the build-once CSR system, reloaded
// after the pads move and with anchors, has bit for bit the reference's
// diagonal and right-hand sides, and its multiply returns bit for bit
// the reference's product.
func TestQuadSystemMatchesAdjacency(t *testing.T) {
	p := subjectPlacer(t, "C5315", context.Background())
	q := newQuadSystem(p.n, p.nets)
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, p.n)
	for i := range v {
		v[i] = rng.Float64()*2000 - 1000
	}
	anchor := make([]geom.Point, p.n)
	for i := range anchor {
		anchor[i] = geom.Point{X: rng.Float64() * 900, Y: rng.Float64() * 900}
	}
	for round, a := range [][]geom.Point{nil, anchor} {
		if round == 1 {
			// Pads move between solves; load must read their new places.
			for i, pd := range p.pads {
				pd.pos = geom.Point{X: float64(i) * 3.7, Y: 1000 - float64(i)*1.3}
			}
		}
		q.load(a, 0.37)
		ref := refSystem(p.n, p.nets, a, 0.37)
		sameBits(t, "diag", q.diag, ref.diag)
		sameBits(t, "rhsX", q.rhsX, ref.rhsX)
		sameBits(t, "rhsY", q.rhsY, ref.rhsY)
		got, want := make([]float64, p.n), make([]float64, p.n)
		q.multiply(v, got)
		ref.multiply(v, want)
		sameBits(t, "Av", got, want)
	}
}

// TestCGIterationsPinned pins the total conjugate-gradient iterations of
// two full placements at the counts the per-solve adjacency-list system
// gave: the CSR system must walk the same CG trajectory.
func TestCGIterationsPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		iters uint64
	}{
		{"C5315", 485},
		{"mid10k", 759},
	} {
		if testing.Short() && tc.name == "mid10k" {
			continue
		}
		fm := obs.RegisterFlowMetrics(obs.NewRegistry())
		p := subjectPlacer(t, tc.name, obs.ContextWithFlowMetrics(context.Background(), fm))
		if _, err := GlobalContext(p.ctx, p.net, p.width, p.rowHeight, p.cfg); err != nil {
			t.Fatal(err)
		}
		if got := fm.CGIterations.Value(); got != tc.iters {
			t.Errorf("%s: cg_iterations = %d, want %d", tc.name, got, tc.iters)
		}
	}
}

// TestSolveQPRepeatAllocs: once a problem's system is built, a further
// solve allocates nothing.
func TestSolveQPRepeatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	p := subjectPlacer(t, "C432", context.Background())
	p.x, p.y = make([]float64, p.n), make([]float64, p.n)
	if err := p.solveQP(nil, 0); err != nil {
		t.Fatal(err)
	}
	anchor := make([]geom.Point, p.n)
	for i := range anchor {
		anchor[i] = geom.Point{X: p.x[i] + 5, Y: p.y[i] - 5}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := p.solveQP(anchor, 0.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("repeat solveQP: %v allocations, want 0", allocs)
	}
}

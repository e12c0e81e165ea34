package wire

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lily/internal/geom"
)

func randPts(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	return pts
}

func TestHPWL(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: 1, Y: 1}}
	if got := HPWL(pts); got != 7 {
		t.Errorf("hpwl = %v", got)
	}
	if HPWL(nil) != 0 {
		t.Error("empty hpwl")
	}
}

func TestChungHwangRatio(t *testing.T) {
	if ChungHwangRatio(2) != 1 || ChungHwangRatio(3) != 1 {
		t.Error("ratio must be 1 for <=3 pins")
	}
	prev := 0.0
	for n := 2; n <= 40; n++ {
		r := ChungHwangRatio(n)
		if r < prev-1e-12 {
			t.Errorf("ratio not monotone at n=%d: %v < %v", n, r, prev)
		}
		prev = r
	}
	// Continuity at the table boundary.
	if d := math.Abs(ChungHwangRatio(11) - ChungHwangRatio(10)); d > 0.1 {
		t.Errorf("discontinuity at n=10..11: %v", d)
	}
}

func TestRMSTSimple(t *testing.T) {
	// Three collinear points: MST is the direct chain.
	var s Scratch
	pts := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 10, Y: 0}}
	if got := s.RMST(pts); got != 10 {
		t.Errorf("rmst = %v, want 10", got)
	}
	// L-shape.
	pts = []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 4}, {X: 3, Y: 4}}
	if got := s.RMST(pts); got != 7 {
		t.Errorf("rmst = %v, want 7", got)
	}
	if s.RMST(pts[:1]) != 0 {
		t.Error("single-pin rmst must be 0")
	}
}

// Kruskal reference implementation for cross-checking Prim.
func kruskalRMST(pts []geom.Point) float64 {
	n := len(pts)
	type edge struct {
		i, j int
		d    float64
	}
	var edges []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, edge{i, j, pts[i].Manhattan(pts[j])})
		}
	}
	for a := range edges {
		for b := a + 1; b < len(edges); b++ {
			if edges[b].d < edges[a].d {
				edges[a], edges[b] = edges[b], edges[a]
			}
		}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	total, used := 0.0, 0
	for _, e := range edges {
		ri, rj := find(e.i), find(e.j)
		if ri != rj {
			parent[ri] = rj
			total += e.d
			used++
			if used == n-1 {
				break
			}
		}
	}
	return total
}

func TestRMSTMatchesKruskal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Scratch
	for trial := 0; trial < 40; trial++ {
		pts := randPts(rng, 2+rng.Intn(10))
		p, k := s.RMST(pts), kruskalRMST(pts)
		if math.Abs(p-k) > 1e-9 {
			t.Fatalf("prim %v != kruskal %v for %v", p, k, pts)
		}
	}
}

// Property: HPWL <= RMST (any spanning tree must traverse the bbox extents).
func TestWirelengthOrdering(t *testing.T) {
	var s Scratch
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randPts(rng, 2+rng.Intn(8))
		return HPWL(pts) <= s.RMST(pts)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMedianPointSingleRect(t *testing.T) {
	r := geom.Enclosing([]geom.Point{{X: 2, Y: 2}, {X: 6, Y: 4}})
	p := MedianPoint([]geom.Rect{r})
	if !r.Contains(p) {
		t.Errorf("median point %v outside sole rect", p)
	}
	if RectDistanceSum(p, []geom.Rect{r}) != 0 {
		t.Error("distance to own rect not 0")
	}
}

// Property (paper Fig 3.2): MedianPoint minimizes the summed Manhattan
// distance to the rectangles — verify against a brute-force grid search.
func TestMedianPointOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		nr := 1 + rng.Intn(5)
		rects := make([]geom.Rect, nr)
		for i := range rects {
			a := geom.Point{X: float64(rng.Intn(20)), Y: float64(rng.Intn(20))}
			b := geom.Point{X: a.X + float64(rng.Intn(6)), Y: a.Y + float64(rng.Intn(6))}
			rects[i] = geom.Enclosing([]geom.Point{a, b})
		}
		p := MedianPoint(rects)
		got := RectDistanceSum(p, rects)
		// Brute force over the integer grid (corners are integers, so an
		// optimal point exists on the grid).
		best := math.MaxFloat64
		for x := 0.0; x <= 26; x++ {
			for y := 0.0; y <= 26; y++ {
				if d := RectDistanceSum(geom.Point{X: x, Y: y}, rects); d < best {
					best = d
				}
			}
		}
		if got > best+1e-9 {
			t.Fatalf("median point %v cost %v > brute force %v (rects %v)", p, got, best, rects)
		}
	}
}

func TestMedianPointEmpty(t *testing.T) {
	if p := MedianPoint(nil); p != (geom.Point{}) {
		t.Errorf("empty median = %v", p)
	}
	if p := MedianPoint([]geom.Rect{geom.EmptyRect()}); p != (geom.Point{}) {
		t.Errorf("all-empty median = %v", p)
	}
}

func TestCenterOfMassPoint(t *testing.T) {
	rects := []geom.Rect{
		geom.Enclosing([]geom.Point{{X: 0, Y: 0}, {X: 2, Y: 2}}),
		geom.EmptyRect(),
		geom.Enclosing([]geom.Point{{X: 4, Y: 4}, {X: 6, Y: 6}}),
	}
	c := CenterOfMassPoint(rects)
	if c.X != 3 || c.Y != 3 {
		t.Errorf("com = %v", c)
	}
	if c := CenterOfMassPoint(rects[1:2]); c != (geom.Point{}) {
		t.Errorf("all-empty com = %v", c)
	}
}

func TestNetLengthModels(t *testing.T) {
	var ws Scratch
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}}
	h := ws.NetLength(ModelHPWLSteiner, pts)
	s := ws.NetLength(ModelSpanningTree, pts)
	if h != 20*ChungHwangRatio(4) {
		t.Errorf("hpwl-steiner = %v", h)
	}
	if s != ws.RMST(pts) {
		t.Errorf("spanning = %v", s)
	}
	if ws.NetLength(ModelHPWLSteiner, pts[:1]) != 0 {
		t.Error("single pin net has length")
	}
}

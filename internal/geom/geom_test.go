package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistances(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if d := a.Manhattan(b); d != 7 {
		t.Errorf("manhattan = %v", d)
	}
	if d := a.Euclidean(b); d != 5 {
		t.Errorf("euclidean = %v", d)
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	c := Centroid(pts)
	if c.X != 1 || c.Y != 1 {
		t.Errorf("centroid = %v", c)
	}
	if z := Centroid(nil); z.X != 0 || z.Y != 0 {
		t.Errorf("empty centroid = %v", z)
	}
}

func TestRectBasics(t *testing.T) {
	r := EmptyRect()
	if !r.IsEmpty() || r.HalfPerimeter() != 0 {
		t.Error("empty rect misbehaves")
	}
	r = r.Extend(Point{1, 2}).Extend(Point{4, -1})
	if r.Width() != 3 || r.Height() != 3 {
		t.Errorf("rect dims = %v x %v", r.Width(), r.Height())
	}
	if r.HalfPerimeter() != 6 {
		t.Errorf("hp = %v", r.HalfPerimeter())
	}
	c := r.Center()
	if c.X != 2.5 || c.Y != 0.5 {
		t.Errorf("center = %v", c)
	}
	if !r.Contains(Point{2, 0}) || r.Contains(Point{5, 0}) {
		t.Error("contains wrong")
	}
}

func TestRectUnion(t *testing.T) {
	a := Enclosing([]Point{{0, 0}, {1, 1}})
	b := Enclosing([]Point{{3, 3}, {4, 5}})
	u := a.Union(b)
	if u.LL != (Point{0, 0}) || u.UR != (Point{4, 5}) {
		t.Errorf("union = %v", u)
	}
	if got := a.Union(EmptyRect()); got != a {
		t.Error("union with empty changed rect")
	}
	if got := EmptyRect().Union(b); got != b {
		t.Error("empty union rect wrong")
	}
}

func TestRectDistanceTo(t *testing.T) {
	r := Enclosing([]Point{{0, 0}, {2, 2}})
	if d := r.DistanceTo(Point{1, 1}); d != 0 {
		t.Errorf("inside distance = %v", d)
	}
	if d := r.DistanceTo(Point{4, 1}); d != 2 {
		t.Errorf("right distance = %v", d)
	}
	if d := r.DistanceTo(Point{-1, -2}); d != 3 {
		t.Errorf("corner distance = %v", d)
	}
}

// Property: Enclosing contains every input point, and its half-perimeter is
// no less than the Manhattan distance between any pair divided by... simply
// check containment and monotonicity of Extend.
func TestEnclosingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64()*100 - 50, rng.Float64()*100 - 50}
		}
		r := Enclosing(pts)
		for _, p := range pts {
			if !r.Contains(p) {
				return false
			}
		}
		// Half-perimeter lower-bounds any spanning path endpoints pair.
		for _, p := range pts {
			for _, q := range pts {
				if p.Manhattan(q) > r.HalfPerimeter()+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegenerateRect(t *testing.T) {
	r := RectAround(Point{5, 5})
	if r.Width() != 0 || r.Height() != 0 || r.IsEmpty() {
		t.Error("degenerate rect wrong")
	}
	if !r.Contains(Point{5, 5}) {
		t.Error("degenerate rect misses its point")
	}
	if d := r.DistanceTo(Point{6, 6}); math.Abs(d-2) > 1e-12 {
		t.Errorf("distance = %v", d)
	}
}

// TestZeroRect pins the zero Rect as the point at the origin, not the
// empty rectangle: it contains the origin, and extending it keeps the
// origin inside, where extending EmptyRect does not.
func TestZeroRect(t *testing.T) {
	var r Rect
	if r.IsEmpty() || !r.Contains(Point{}) || r != RectAround(Point{}) {
		t.Fatalf("zero Rect = %+v, want the point at the origin", r)
	}
	p := Point{3, 4}
	if got, want := r.Extend(p), Enclosing([]Point{{}, p}); got != want {
		t.Errorf("zero Rect extended by %v = %v, want %v", p, got, want)
	}
	if got := EmptyRect().Extend(p); got != RectAround(p) {
		t.Errorf("EmptyRect extended by %v = %v, want %v", p, got, RectAround(p))
	}
	if !EmptyRect().IsEmpty() || EmptyRect().Contains(Point{}) {
		t.Error("EmptyRect must be empty and contain no point")
	}
}

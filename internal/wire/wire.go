// Package wire estimates interconnect length. It provides the two wiring
// models of the paper (§3.4): half-perimeter of the net's enclosing
// rectangle scaled by the Chung–Hwang minimal-rectilinear-Steiner-tree
// ratio, and an explicit rectilinear spanning tree over the net's pins.
// It also implements the Manhattan optimal-point computation used by the
// CM-of-Fans placement update (§3.2): the point minimizing the summed
// distance to a set of fanin/fanout rectangles is the median of the
// rectangles' corner coordinates.
package wire

import (
	"math"
	"sort"

	"lily/internal/geom"
)

// Model selects the net-length estimator.
type Model int

const (
	// ModelHPWLSteiner uses half-perimeter × Chung–Hwang ratio.
	ModelHPWLSteiner Model = iota
	// ModelSpanningTree uses an explicit rectilinear minimum spanning tree.
	ModelSpanningTree
)

func (m Model) String() string {
	if m == ModelSpanningTree {
		return "rmst"
	}
	return "hpwl-steiner"
}

// HPWL returns the half-perimeter wirelength of the net's pins.
func HPWL(pins []geom.Point) float64 {
	return geom.Enclosing(pins).HalfPerimeter()
}

// ChungHwangRatio approximates the ratio of the largest minimal rectilinear
// Steiner tree to the enclosing-rectangle half-perimeter for an n-pin net,
// after Chung & Hwang (Networks 9, 1979). For up to three pins the minimal
// Steiner tree never exceeds the half-perimeter; beyond that the worst case
// grows on the order of sqrt(n).
func ChungHwangRatio(n int) float64 {
	switch {
	case n <= 3:
		return 1.0
	case n <= 10:
		// Interpolated table in the range where the exact worst case is
		// known to grow slowly.
		table := [...]float64{4: 1.08, 5: 1.15, 6: 1.22, 7: 1.28, 8: 1.34, 9: 1.39, 10: 1.44}
		return table[n]
	default:
		// Asymptotic sqrt growth, continuous at n=10.
		return 1.44 + 0.18*(math.Sqrt(float64(n))-math.Sqrt(10))
	}
}

// MedianPoint returns a point minimizing the summed Manhattan distance to
// all rectangles (paper §3.2): the distance function is separable in x and
// y, and each axis is minimized by the median of the rectangles' lower and
// upper corner coordinates on that axis.
func MedianPoint(rects []geom.Rect) geom.Point {
	if len(rects) == 0 {
		return geom.Point{}
	}
	xs := make([]float64, 0, 2*len(rects))
	ys := make([]float64, 0, 2*len(rects))
	for _, r := range rects {
		if r.IsEmpty() {
			continue
		}
		xs = append(xs, r.LL.X, r.UR.X)
		ys = append(ys, r.LL.Y, r.UR.Y)
	}
	if len(xs) == 0 {
		return geom.Point{}
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	return geom.Point{X: median(xs), Y: median(ys)}
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// RectDistanceSum returns the summed Manhattan distance from p to each
// rectangle (zero for rectangles containing p).
func RectDistanceSum(p geom.Point, rects []geom.Rect) float64 {
	total := 0.0
	for _, r := range rects {
		total += r.DistanceTo(p)
	}
	return total
}

// CenterOfMassPoint returns the centroid of the rectangle centers — the
// approximate optimal point used for the Euclidean norm (paper §3.2: "we
// represent each fanin/fanout rectangle by its center point, then the
// optimal point location problem is solved by computing the center of mass
// of these center points"). Empty rectangles are skipped; the centers are
// summed in slice order, as geom.Centroid sums points, without allocating.
func CenterOfMassPoint(rects []geom.Rect) geom.Point {
	var c geom.Point
	n := 0
	for _, r := range rects {
		if r.IsEmpty() {
			continue
		}
		c = c.Add(r.Center())
		n++
	}
	if n == 0 {
		return geom.Point{}
	}
	return c.Scale(1 / float64(n))
}

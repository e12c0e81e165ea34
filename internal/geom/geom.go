// Package geom provides the planar geometry primitives shared by the
// placement, wiring, and layout packages: points on the layout plane (the
// paper's point model, §3.1) and axis-aligned enclosing rectangles (the
// fanin/fanout rectangles of §3.3).
package geom

import (
	"fmt"
	"math"
)

// Point is a location on the layout plane, in micrometres.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Manhattan returns the L1 distance between two points.
func (p Point) Manhattan(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Euclidean returns the L2 distance between two points.
func (p Point) Euclidean(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%.2f,%.2f)", p.X, p.Y) }

// Centroid returns the center of mass of the points; the zero point for an
// empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// Rect is an axis-aligned rectangle given by lower-left and upper-right
// corners. The zero Rect is not empty: it is the degenerate rectangle at
// the origin, and Extend grows it from there. EmptyRect returns the only
// empty rectangle, which Extend starts fresh from the first point.
type Rect struct {
	LL, UR Point
	empty  bool
}

// EmptyRect returns a rectangle containing no points.
func EmptyRect() Rect { return Rect{empty: true} }

// RectAround returns the degenerate rectangle covering a single point.
func RectAround(p Point) Rect { return Rect{LL: p, UR: p} }

// Enclosing returns the minimum rectangle enclosing all points.
func Enclosing(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.Extend(p)
	}
	return r
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.empty }

// Extend grows the rectangle to include p.
func (r Rect) Extend(p Point) Rect {
	if r.empty {
		return Rect{LL: p, UR: p}
	}
	if p.X < r.LL.X {
		r.LL.X = p.X
	}
	if p.Y < r.LL.Y {
		r.LL.Y = p.Y
	}
	if p.X > r.UR.X {
		r.UR.X = p.X
	}
	if p.Y > r.UR.Y {
		r.UR.Y = p.Y
	}
	return r
}

// Union returns the minimum rectangle enclosing both rectangles.
func (r Rect) Union(o Rect) Rect {
	if r.empty {
		return o
	}
	if o.empty {
		return r
	}
	return r.Extend(o.LL).Extend(o.UR)
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 {
	if r.empty {
		return 0
	}
	return r.UR.X - r.LL.X
}

// Height returns the vertical extent.
func (r Rect) Height() float64 {
	if r.empty {
		return 0
	}
	return r.UR.Y - r.LL.Y
}

// HalfPerimeter returns width + height, the classic net-length lower bound.
func (r Rect) HalfPerimeter() float64 { return r.Width() + r.Height() }

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{(r.LL.X + r.UR.X) / 2, (r.LL.Y + r.UR.Y) / 2}
}

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return !r.empty && p.X >= r.LL.X && p.X <= r.UR.X && p.Y >= r.LL.Y && p.Y <= r.UR.Y
}

// DistanceTo returns the L1 distance from p to the nearest point of the
// rectangle; zero if p is inside.
func (r Rect) DistanceTo(p Point) float64 {
	if r.empty {
		return 0
	}
	dx := 0.0
	if p.X < r.LL.X {
		dx = r.LL.X - p.X
	} else if p.X > r.UR.X {
		dx = p.X - r.UR.X
	}
	dy := 0.0
	if p.Y < r.LL.Y {
		dy = r.LL.Y - p.Y
	} else if p.Y > r.UR.Y {
		dy = p.Y - r.UR.Y
	}
	return dx + dy
}

func (r Rect) String() string {
	if r.empty {
		return "[empty]"
	}
	return fmt.Sprintf("[%v %v]", r.LL, r.UR)
}

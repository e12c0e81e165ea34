package wire

import (
	"math"

	"lily/internal/geom"
)

// Scratch is the net-length estimator: it holds reusable work buffers so
// the mapper's inner loop — which evaluates wire cost for every candidate
// match of every node (paper §3.4) — performs no per-call allocations.
// The zero Scratch is ready to use. A Scratch is not safe for concurrent
// use; each caller (a mapping run, a layout, a timing analysis) owns one.
type Scratch struct {
	dist   []float64
	from   []int
	inTree []bool
}

// grow readies the Prim buffers for an n-pin net.
func (s *Scratch) grow(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.from = make([]int, n)
		s.inTree = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.from = s.from[:n]
	s.inTree = s.inTree[:n]
}

// NetLength estimates the routed length of a net with the given model.
func (s *Scratch) NetLength(model Model, pins []geom.Point) float64 {
	if len(pins) < 2 {
		return 0
	}
	if model == ModelSpanningTree {
		return s.RMST(pins)
	}
	return HPWL(pins) * ChungHwangRatio(len(pins))
}

// LengthXY splits a net-length estimate into horizontal and vertical
// components, which the wiring-capacitance model C_w = c_h·X + c_v·Y needs
// (paper §4.2). For the HPWL model the components are the bounding-box
// extents scaled by the Chung–Hwang ratio; for the spanning-tree model
// they are the summed |dx| and |dy| of the tree edges.
func (s *Scratch) LengthXY(model Model, pins []geom.Point) (x, y float64) {
	if len(pins) < 2 {
		return 0, 0
	}
	if model == ModelSpanningTree {
		return s.RMSTXY(pins)
	}
	r := geom.Enclosing(pins)
	k := ChungHwangRatio(len(pins))
	return r.Width() * k, r.Height() * k
}

// RMST returns the length of a rectilinear minimum spanning tree over the
// pins (Prim's algorithm, O(n²) — nets are small).
func (s *Scratch) RMST(pins []geom.Point) float64 {
	n := len(pins)
	if n < 2 {
		return 0
	}
	const inf = math.MaxFloat64
	s.grow(n)
	dist, inTree := s.dist, s.inTree
	for i := range dist {
		dist[i] = inf
		inTree[i] = false
	}
	dist[0] = 0
	total := 0.0
	for k := 0; k < n; k++ {
		best, bestD := -1, inf
		for i := 0; i < n; i++ {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		inTree[best] = true
		total += bestD
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pins[best].Manhattan(pins[i]); d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
}

// RMSTXY returns the per-axis edge lengths of the rectilinear MST, the
// decomposition the wiring-capacitance model uses (paper §4.2).
func (s *Scratch) RMSTXY(pins []geom.Point) (xLen, yLen float64) {
	n := len(pins)
	if n < 2 {
		return 0, 0
	}
	const inf = math.MaxFloat64
	s.grow(n)
	dist, from, inTree := s.dist, s.from, s.inTree
	for i := range dist {
		dist[i] = inf
		from[i] = -1
		inTree[i] = false
	}
	dist[0] = 0
	for k := 0; k < n; k++ {
		best, bestD := -1, inf
		for i := 0; i < n; i++ {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		inTree[best] = true
		if from[best] >= 0 {
			xLen += math.Abs(pins[best].X - pins[from[best]].X)
			yLen += math.Abs(pins[best].Y - pins[from[best]].Y)
		}
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pins[best].Manhattan(pins[i]); d < dist[i] {
					dist[i] = d
					from[i] = best
				}
			}
		}
	}
	return xLen, yLen
}

// HPWLNetLength returns the half-perimeter × Chung–Hwang estimate for a
// net whose enclosing rectangle and pin count are already known — the
// rectangle-incremental fast path of the cover DP, which extends a cached
// fanin rectangle by the candidate gate position instead of re-scanning
// the pin list. Equivalent to Scratch.NetLength(ModelHPWLSteiner, pins) when
// r == geom.Enclosing(pins) and npins == len(pins).
func HPWLNetLength(r geom.Rect, npins int) float64 {
	if npins < 2 {
		return 0
	}
	return r.HalfPerimeter() * ChungHwangRatio(npins)
}

// HPWLLengthXY is the rectangle-incremental fast path of LengthXY for the
// HPWL-Steiner model.
func HPWLLengthXY(r geom.Rect, npins int) (x, y float64) {
	if npins < 2 {
		return 0, 0
	}
	k := ChungHwangRatio(npins)
	return r.Width() * k, r.Height() * k
}

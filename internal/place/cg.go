// Package place implements the global placement substrate Lily relies on
// (paper §3.1): a GORDIAN-style quadratic placement. Movable gates are
// points; pads are fixed at the chip boundary; the placer minimizes the
// squared-Euclidean length over all connections by solving a sparse linear
// system per axis, then recursively bi-partitions the cell set (with
// Fiduccia–Mattheyses refinement) and re-solves with region anchors until
// regions are small, yielding a balanced point placement that captures the
// network's connectivity structure on the plane.
package place

import (
	"context"
	"fmt"
	"math"
)

// entry is one off-diagonal coefficient of the quadratic system.
type entry struct {
	j int
	w float64
}

// quadSystem is the sparse symmetric positive-definite system
// (L + diag(anchor)) x = b for one axis; the same structure is shared by
// both axes with different right-hand sides.
type quadSystem struct {
	n    int
	diag []float64
	adj  [][]entry
	rhsX []float64
	rhsY []float64
}

func newQuadSystem(n int) *quadSystem {
	return &quadSystem{
		n:    n,
		diag: make([]float64, n),
		adj:  make([][]entry, n),
		rhsX: make([]float64, n),
		rhsY: make([]float64, n),
	}
}

// addEdge couples movable vertices i and j with weight w.
func (q *quadSystem) addEdge(i, j int, w float64) {
	if i == j {
		return
	}
	q.diag[i] += w
	q.diag[j] += w
	q.adj[i] = append(q.adj[i], entry{j, -w})
	q.adj[j] = append(q.adj[j], entry{i, -w})
}

// addFixed couples movable vertex i to a fixed location with weight w.
func (q *quadSystem) addFixed(i int, w, x, y float64) {
	q.diag[i] += w
	q.rhsX[i] += w * x
	q.rhsY[i] += w * y
}

// multiply computes out = A v.
func (q *quadSystem) multiply(v, out []float64) {
	for i := 0; i < q.n; i++ {
		s := q.diag[i] * v[i]
		for _, e := range q.adj[i] {
			s += e.w * v[e.j]
		}
		out[i] = s
	}
}

// solve runs Jacobi-preconditioned conjugate gradient for one axis,
// starting from x0 (which is overwritten with the solution). The iteration
// polls ctx every 32 steps so cancelled placements stop promptly.
func (q *quadSystem) solve(ctx context.Context, rhs, x0 []float64, tol float64, maxIter int) (iters int, err error) {
	n := q.n
	if n == 0 {
		return 0, nil
	}
	for i := 0; i < n; i++ {
		if q.diag[i] <= 0 {
			return 0, fmt.Errorf("place: vertex %d has no connections (singular system)", i)
		}
	}
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	q.multiply(x0, r)
	rr := 0.0
	for i := 0; i < n; i++ {
		r[i] = rhs[i] - r[i]
		z[i] = r[i] / q.diag[i]
		p[i] = z[i]
		rr += r[i] * z[i]
	}
	norm0 := math.Sqrt(dot(r, r))
	if norm0 < tol {
		return 0, nil
	}
	for it := 0; it < maxIter; it++ {
		if it&31 == 31 {
			if cerr := ctx.Err(); cerr != nil {
				return it, cerr
			}
		}
		q.multiply(p, ap)
		pap := dot(p, ap)
		if pap <= 0 {
			return it, fmt.Errorf("place: CG breakdown (pAp=%v)", pap)
		}
		alpha := rr / pap
		for i := 0; i < n; i++ {
			x0[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		if math.Sqrt(dot(r, r)) < tol*(1+norm0) {
			return it + 1, nil
		}
		rrNew := 0.0
		for i := 0; i < n; i++ {
			z[i] = r[i] / q.diag[i]
			rrNew += r[i] * z[i]
		}
		beta := rrNew / rr
		rr = rrNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	return maxIter, nil
}

// dotBlock is the fixed partial-sum width of dot. The reduction order
// (block sums folded in block order) is part of the placement's float
// contract: the goldens pin the CG trajectory it produces. Vectors up to
// one block sum as a flat loop does.
const dotBlock = 4096

// dot computes a·b over fixed dotBlock-wide partial sums, folding each
// block's sum into the total in block order.
func dot(a, b []float64) float64 {
	n := len(a)
	total := 0.0
	for lo := 0; lo < n; lo += dotBlock {
		hi := min(lo+dotBlock, n)
		s := 0.0
		for i := lo; i < hi; i++ {
			s += a[i] * b[i]
		}
		total += s
	}
	return total
}

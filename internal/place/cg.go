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

	"lily/internal/geom"
)

// quadSystem is the sparse symmetric positive-definite system
// (L + diag(anchor)) x = b for one placement problem; both axes share
// the matrix and differ in the right-hand side. The net Laplacian is
// built once, in CSR form; load refills the parts that change between
// solves (pad positions move in assignPads, anchors change per level).
type quadSystem struct {
	n int
	// Row i's off-diagonal coefficients are val[start[i]:start[i+1]] at
	// columns col[start[i]:start[i+1]], in the order the couplings were
	// added: multiply sums them in that order, and duplicate (i, j)
	// entries from different nets stay separate terms.
	start []int32
	col   []int32
	val   []float64
	// base is the anchor-free diagonal, accumulated in coupling order;
	// pads lists the cell-pad couplings in that order.
	base []float64
	pads []padCoupling

	diag []float64
	rhsX []float64
	rhsY []float64

	// r, z, p and ap are solve's conjugate-gradient vectors.
	r, z, p, ap []float64
}

// padCoupling ties movable cell to a fixed pad with weight w.
type padCoupling struct {
	cell int32
	w    float64
	pad  *pad
}

// newQuadSystem builds the system of n movable points connected by nets.
// A first pass over the couplings counts row lengths and accumulates the
// base diagonal; a second fills the rows, so every array is sized once.
func newQuadSystem(n int, nets []netDef) *quadSystem {
	q := &quadSystem{
		n:     n,
		start: make([]int32, n+1),
		base:  make([]float64, n),
		diag:  make([]float64, n),
		rhsX:  make([]float64, n),
		rhsY:  make([]float64, n),
		r:     make([]float64, n),
		z:     make([]float64, n),
		p:     make([]float64, n),
		ap:    make([]float64, n),
	}
	npads := 0
	forEachPinPair(nets, func(a, b netPin, w float64) {
		ai, bi := pinCell(a), pinCell(b)
		switch {
		case ai >= 0 && bi >= 0:
			if ai != bi {
				q.base[ai] += w
				q.base[bi] += w
				q.start[ai+1]++
				q.start[bi+1]++
			}
		case ai >= 0:
			q.base[ai] += w
			npads++
		case bi >= 0:
			q.base[bi] += w
			npads++
		}
	})
	for i := 0; i < n; i++ {
		q.start[i+1] += q.start[i]
	}
	q.col = make([]int32, q.start[n])
	q.val = make([]float64, q.start[n])
	q.pads = make([]padCoupling, 0, npads)
	next := make([]int32, n)
	copy(next, q.start[:n])
	add := func(i, j int, w float64) {
		q.col[next[i]] = int32(j)
		q.val[next[i]] = -w
		next[i]++
	}
	forEachPinPair(nets, func(a, b netPin, w float64) {
		ai, bi := pinCell(a), pinCell(b)
		switch {
		case ai >= 0 && bi >= 0:
			if ai != bi {
				add(ai, bi, w)
				add(bi, ai, w)
			}
		case ai >= 0:
			q.pads = append(q.pads, padCoupling{cell: int32(ai), w: w, pad: b.pad})
		case bi >= 0:
			q.pads = append(q.pads, padCoupling{cell: int32(bi), w: w, pad: a.pad})
		}
	})
	return q
}

// load sets the diagonal and right-hand sides for one solve: the base
// diagonal, the pad couplings at the pads' current positions, then the
// anchors (if any) pulling each point toward anchor[i] with weight
// anchorW. Every entry sums its terms in coupling order with the anchor
// last; the goldens pin the rounding that order gives.
func (q *quadSystem) load(anchor []geom.Point, anchorW float64) {
	copy(q.diag, q.base)
	clear(q.rhsX)
	clear(q.rhsY)
	for _, c := range q.pads {
		q.rhsX[c.cell] += c.w * c.pad.pos.X
		q.rhsY[c.cell] += c.w * c.pad.pos.Y
	}
	if anchor != nil {
		for i := 0; i < q.n; i++ {
			q.diag[i] += anchorW
			q.rhsX[i] += anchorW * anchor[i].X
			q.rhsY[i] += anchorW * anchor[i].Y
		}
	}
}

// multiply computes out = A v.
func (q *quadSystem) multiply(v, out []float64) {
	for i := 0; i < q.n; i++ {
		s := q.diag[i] * v[i]
		for k := q.start[i]; k < q.start[i+1]; k++ {
			s += q.val[k] * v[q.col[k]]
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
	// Every element of the four vectors is written before it is read.
	r, z, p, ap := q.r, q.z, q.p, q.ap

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

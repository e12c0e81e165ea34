package wire

import (
	"math"
	"math/rand"
	"testing"

	"lily/internal/geom"
)

// Property-based tests over randomized pin sets with fixed seeds: every
// estimator invariant asserted here is mathematically true for rectilinear
// metrics (no wishful bounds), so a failure is a real regression.

// randPins draws n pins in a 1000×1000 window, with a bias toward
// coincident and collinear configurations (the degenerate cases that break
// naive geometric code).
func randPins(rng *rand.Rand, n int) []geom.Point {
	pins := make([]geom.Point, n)
	for i := range pins {
		switch rng.Intn(5) {
		case 1:
			if i > 0 { // duplicate an earlier pin
				pins[i] = pins[rng.Intn(i)]
				continue
			}
			fallthrough
		case 2:
			if i > 0 { // collinear with an earlier pin
				p := pins[rng.Intn(i)]
				if rng.Intn(2) == 0 {
					pins[i] = geom.Point{X: p.X, Y: rng.Float64() * 1000}
				} else {
					pins[i] = geom.Point{X: rng.Float64() * 1000, Y: p.Y}
				}
				continue
			}
			fallthrough
		default:
			pins[i] = geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
	}
	return pins
}

const propTrials = 300

// relTol returns an absolute tolerance scaled to the magnitude of the
// values being compared (float summation order differs between paths).
func relTol(vals ...float64) float64 {
	m := 1.0
	for _, v := range vals {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return 1e-9 * m
}

// HPWL ≤ RMST, and the HPWL-Steiner model never undercuts plain HPWL
// (ratio ≥ 1). Any spanning tree must cross the full bounding box in both
// axes, so the half-perimeter is a true lower bound.
func TestPropEstimatorOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Scratch
	for trial := 0; trial < propTrials; trial++ {
		n := 2 + rng.Intn(12)
		pins := randPins(rng, n)
		hp := HPWL(pins)
		rmst := s.RMST(pins)
		steiner := s.NetLength(ModelHPWLSteiner, pins)
		tol := relTol(hp, rmst)
		if hp > rmst+tol {
			t.Fatalf("trial %d: HPWL %v > RMST %v for %v", trial, hp, rmst, pins)
		}
		if steiner < hp-tol {
			t.Fatalf("trial %d: HPWL-Steiner %v < HPWL %v (ratio < 1?)", trial, steiner, hp)
		}
	}
}

// ChungHwangRatio is ≥ 1 everywhere and non-decreasing in the pin count.
func TestPropChungHwangMonotone(t *testing.T) {
	prev := 0.0
	for n := 0; n <= 200; n++ {
		k := ChungHwangRatio(n)
		if k < 1 {
			t.Fatalf("ratio(%d) = %v < 1", n, k)
		}
		if k < prev-1e-12 {
			t.Fatalf("ratio(%d) = %v < ratio(%d) = %v", n, k, n-1, prev)
		}
		prev = k
	}
}

// LengthXY must decompose NetLength: x + y equals the scalar estimate for
// both models (up to summation-order rounding).
func TestPropLengthXYDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Scratch
	for trial := 0; trial < propTrials; trial++ {
		n := 2 + rng.Intn(10)
		pins := randPins(rng, n)
		for _, model := range []Model{ModelHPWLSteiner, ModelSpanningTree} {
			x, y := s.LengthXY(model, pins)
			if x < 0 || y < 0 {
				t.Fatalf("%v: negative component (%v, %v)", model, x, y)
			}
			total := s.NetLength(model, pins)
			if d := math.Abs(x + y - total); d > relTol(total) {
				t.Fatalf("%v trial %d: x+y = %v, NetLength = %v (Δ %g)", model, trial, x+y, total, d)
			}
		}
	}
}

// The rectangle fast paths of the cover DP are bit-identical to the
// Scratch estimators over the pin list: assert exact equality, not
// approximate.
func TestPropScratchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Scratch
	for trial := 0; trial < propTrials; trial++ {
		n := rng.Intn(14)
		pins := randPins(rng, n)
		r := geom.Enclosing(pins)
		if got, want := HPWLNetLength(r, len(pins)), s.NetLength(ModelHPWLSteiner, pins); got != want {
			t.Fatalf("HPWLNetLength = %v, NetLength = %v", got, want)
		}
		fx, fy := HPWLLengthXY(r, len(pins))
		px, py := s.LengthXY(ModelHPWLSteiner, pins)
		if fx != px || fy != py {
			t.Fatalf("HPWLLengthXY = (%v,%v), LengthXY = (%v,%v)", fx, fy, px, py)
		}
	}
}

// Estimates are invariant under pin permutation (HPWL exactly — min/max —
// and MST totals up to summation order: all minimum spanning trees of a
// graph share the same total weight).
func TestPropPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var s Scratch
	for trial := 0; trial < propTrials; trial++ {
		n := 2 + rng.Intn(10)
		pins := randPins(rng, n)
		perm := append([]geom.Point(nil), pins...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if HPWL(pins) != HPWL(perm) {
			t.Fatalf("HPWL not permutation invariant: %v vs %v", HPWL(pins), HPWL(perm))
		}
		a, b := s.RMST(pins), s.RMST(perm)
		if math.Abs(a-b) > relTol(a, b) {
			t.Fatalf("RMST weight changed under permutation: %v vs %v for %v", a, b, pins)
		}
	}
}

// Translation shifts and uniform scaling act on the estimates exactly as
// the metric demands: invariance and linear scaling respectively.
func TestPropTranslationAndScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Scratch
	for trial := 0; trial < propTrials; trial++ {
		n := 2 + rng.Intn(8)
		pins := randPins(rng, n)
		d := geom.Point{X: rng.Float64()*200 - 100, Y: rng.Float64()*200 - 100}
		k := 0.5 + rng.Float64()*3
		shifted := make([]geom.Point, n)
		scaled := make([]geom.Point, n)
		for i, p := range pins {
			shifted[i] = p.Add(d)
			scaled[i] = p.Scale(k)
		}
		base := s.RMST(pins)
		if got := s.RMST(shifted); math.Abs(got-base) > 1e-7*math.Max(1, base) {
			t.Fatalf("RMST not translation invariant: %v vs %v", got, base)
		}
		if got := s.RMST(scaled); math.Abs(got-k*base) > 1e-7*math.Max(1, k*base) {
			t.Fatalf("RMST not homogeneous: %v vs %v·%v", got, k, base)
		}
	}
}

// MedianPoint is the Manhattan-optimal location: no random probe point may
// beat its summed rectangle distance (§3.2 — the median minimizes the
// separable per-axis objective).
func TestPropMedianPointOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 150; trial++ {
		nr := 1 + rng.Intn(6)
		rects := make([]geom.Rect, nr)
		for i := range rects {
			p := geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			q := geom.Point{X: p.X + rng.Float64()*100, Y: p.Y + rng.Float64()*100}
			rects[i] = geom.RectAround(p).Extend(q)
		}
		opt := MedianPoint(rects)
		best := RectDistanceSum(opt, rects)
		for probe := 0; probe < 50; probe++ {
			p := geom.Point{X: rng.Float64() * 1200, Y: rng.Float64() * 1200}
			if d := RectDistanceSum(p, rects); d < best-relTol(best) {
				t.Fatalf("probe %v beats MedianPoint %v: %v < %v", p, opt, d, best)
			}
		}
	}
}

package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lily/internal/bench"
	"lily/internal/logic"
)

// TestConeOrderGreedy reproduces §3.5 on a hand-built network: cone B
// depends heavily on logic inside cone A (many exit lines from B's
// perspective are references to A's unmapped nodes), so the greedy
// min-row-sum ordering must schedule A's supplier cone first.
func TestConeOrderGreedy(t *testing.T) {
	sub := logic.New("order")
	a := sub.AddPI("a")
	b := sub.AddPI("b")
	c := sub.AddPI("c")
	// Shared subtree s feeds both cones.
	s1 := sub.AddLogic("s1", []logic.NodeID{a.ID, b.ID}, logic.NandSOP(2))
	s2 := sub.AddLogic("s2", []logic.NodeID{s1.ID}, logic.NotSOP())
	// Cone X: consumes the shared tree twice plus c.
	x1 := sub.AddLogic("x1", []logic.NodeID{s2.ID, c.ID}, logic.NandSOP(2))
	x2 := sub.AddLogic("x2", []logic.NodeID{x1.ID, s1.ID}, logic.NandSOP(2))
	// Cone Y: only the shared tree.
	y1 := sub.AddLogic("y1", []logic.NodeID{s2.ID}, logic.NotSOP())
	sub.MarkPO(x2.ID, "x")
	sub.MarkPO(y1.ID, "y")

	lm := &lily{sub: sub, opt: Options{OrderCones: true}}
	order := lm.coneOrder()
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	// Exit lines: E(K_x, K_y) counts edges from cone-x nodes into cone-y
	// exclusive nodes and vice versa. y's cone is a subset of x's support,
	// so E(K_y, K_x) > E(K_x, K_y) = 0, and x must be processed first
	// (its row sum is minimal).
	m := sub.ExitLines()
	// s2 -> y1 is the single exit from cone x into cone y; cone y exits
	// twice into cone-x-exclusive nodes (s1 -> x2 and s2 -> x1).
	if m[0][1] != 1 {
		t.Fatalf("E(K_x,K_y) = %d, want 1", m[0][1])
	}
	if m[1][0] != 2 {
		t.Fatalf("E(K_y,K_x) = %d, want 2", m[1][0])
	}
	if order[0] != 0 {
		t.Errorf("greedy order %v; cone x (index 0) should go first", order)
	}

	// With ordering disabled the natural order is preserved.
	lm.opt.OrderCones = false
	nat := lm.coneOrder()
	if nat[0] != 0 || nat[1] != 1 {
		t.Errorf("natural order = %v", nat)
	}
}

// TestConeOrderDeterministicTies ensures ties break by index.
func TestConeOrderDeterministicTies(t *testing.T) {
	sub := logic.New("ties")
	a := sub.AddPI("a")
	x := sub.AddLogic("x", []logic.NodeID{a.ID}, logic.NotSOP())
	y := sub.AddLogic("y", []logic.NodeID{a.ID}, logic.NotSOP())
	sub.MarkPO(x.ID, "x")
	sub.MarkPO(y.ID, "y")
	lm := &lily{sub: sub, opt: Options{OrderCones: true}}
	order := lm.coneOrder()
	if order[0] != 0 || order[1] != 1 {
		t.Errorf("tie-break order = %v, want [0 1]", order)
	}
}

// refGreedyOrder is the direct form of greedyOrder: every pick sums each
// remaining row over the other remaining columns afresh, O(k³) in all.
func refGreedyOrder(m [][]int) []int {
	k := len(m)
	remaining := make([]bool, k)
	for i := range remaining {
		remaining[i] = true
	}
	order := make([]int, 0, k)
	for len(order) < k {
		bestI, bestSum := -1, math.MaxInt
		for i := 0; i < k; i++ {
			if !remaining[i] {
				continue
			}
			sum := 0
			for j := 0; j < k; j++ {
				if remaining[j] && j != i {
					sum += m[i][j]
				}
			}
			if sum < bestSum {
				bestI, bestSum = i, sum
			}
		}
		order = append(order, bestI)
		remaining[bestI] = false
	}
	return order
}

// TestConeOrderMatchesReference: greedyOrder returns the reference order
// on random exit-line matrices, whose small entries make ties common, and
// on the exit lines of every paper circuit.
func TestConeOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		k := rng.Intn(30)
		m := make([][]int, k)
		for i := range m {
			m[i] = make([]int, k)
			for j := range m[i] {
				m[i][j] = rng.Intn(3) * rng.Intn(2) // half the entries are zero
			}
		}
		if got, want := greedyOrder(m), refGreedyOrder(m); !slices.Equal(got, want) {
			t.Fatalf("trial %d, %d×%d matrix %v: order %v, want %v", trial, k, k, m, got, want)
		}
	}
	for _, p := range bench.Profiles() {
		_, sub := subjectFor(t, p.Name)
		m := sub.ExitLines()
		if got, want := greedyOrder(m), refGreedyOrder(m); !slices.Equal(got, want) {
			t.Errorf("%s: order %v, want %v", p.Name, got, want)
		}
	}
}

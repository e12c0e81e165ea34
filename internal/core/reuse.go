package core

import (
	"fmt"
	"math"
	"slices"

	"lily/internal/geom"
	"lily/internal/logic"
	"lily/internal/match"
)

// Exact reuse across cones (DESIGN.md §11). Every cone wakes the doves it
// shares with earlier cones and costs their candidates again, and most of
// those candidates read exactly what they read the time before. A
// candidate's cost is a function of its node's fanout geometry, which
// only a global re-placement moves, and of what it reads from each input
// signal: the input's kind, whether it is a hawk, its DP values and its
// true-fanout list. The signal's content stamp covers all of the latter,
// so a candidate whose inputs kept their stamps has the cost it had.

// sigStamp is a signal's content stamp. live holds one bit per subject
// fanout (bit k for Fanouts(u)[k]), set while that fanout is neither an
// egg nor a nestling; a signal with more than 64 fanouts counts flips
// there instead, which never repeats a value. ver moves whenever anything
// else a candidate reads from the signal changes: its DP values (best,
// wCost, areaSum, mapPos, blockA, compared bit for bit by record), its
// commit as a hawk, each hawk consumer appended to its list (the list
// only grows), and every global re-placement. Equal stamps thus mean
// equal contents, and a fanout that leaves the live pair and comes back
// restores the stamp it had.
type sigStamp struct {
	live uint64
	ver  uint32
}

// flipLive records that fanout fo of the signal whose subject fanouts
// are fos entered or left the live pair.
func (s *sigStamp) flipLive(fos []logic.NodeID, fo logic.NodeID) {
	if len(fos) > 64 {
		s.live++
		return
	}
	for k, w := range fos {
		if w == fo {
			s.live ^= 1 << k
		}
	}
}

// nodeMemo is a node's record of its last evaluation, kept from its
// second evaluation on (most nodes are evaluated once). Every entry of
// vals is NaN or the exact value its candidate has under stamps.
type nodeMemo struct {
	// ins lists the distinct inputs of all the node's candidates with
	// their stamps at the last evaluation.
	ins []memoIn
	// vals holds one entry per candidate: the cost in area mode; rise,
	// fall and accumulated area in delay mode. NaN marks a candidate the
	// memo has no current value for (pruned or infeasible while one of
	// its inputs changed).
	vals []float64
	// pruned is the last evaluation's prune count.
	pruned uint32
}

// memoIn is one memo input with its stamp, unpacked to 16 bytes.
type memoIn struct {
	u    logic.NodeID
	ver  uint32
	live uint64
}

// checkReuse makes every reused node and candidate also recompute its
// result, and fail the run on any bit difference. Tests set it.
var checkReuse = false

// newMemo builds the memo of a node at its second evaluation: its inputs
// at their current stamps, every input marked changed, no values.
func (lm *lily) newMemo(matches []match.Match) *nodeMemo {
	width := 1
	if lm.opt.Mode == ModeDelay {
		width = 3
	}
	memo := &nodeMemo{vals: make([]float64, width*len(matches))}
	for i := range memo.vals {
		memo.vals[i] = math.NaN()
	}
	lm.changed.clear()
	ins := lm.insBuf[:0]
	for i := range matches {
		for _, u := range matches[i].Inputs() {
			if !lm.changed.has(u) {
				lm.changed.add(u)
				ins = append(ins, memoIn{u: u, ver: lm.stamps[u].ver, live: lm.stamps[u].live})
			}
		}
	}
	lm.insBuf = ins
	memo.ins = slices.Clone(ins)
	return memo
}

// refresh marks the memo's inputs whose stamps moved since the last
// evaluation in lm.changed, takes their new stamps, and reports whether
// any moved.
func (lm *lily) refresh(memo *nodeMemo) bool {
	lm.changed.clear()
	moved := false
	for i := range memo.ins {
		in := &memo.ins[i]
		if s := lm.stamps[in.u]; s.ver != in.ver || s.live != in.live {
			in.ver, in.live = s.ver, s.live
			lm.changed.add(in.u)
			moved = true
		}
	}
	return moved
}

// readsChanged reports whether match m reads an input refresh marked.
func (lm *lily) readsChanged(m *match.Match) bool {
	for _, vi := range m.Inputs() {
		if lm.changed.has(vi) {
			return true
		}
	}
	return false
}

// record stores an evaluation's result at v and moves v's stamp only if
// a value its readers see changed, bit for bit. In delay mode the block
// arrivals are cloned only when they changed.
func (lm *lily) record(v logic.NodeID, r dpResult) {
	same := lm.best[v] == r.best && sameBits(lm.wCost[v], r.wlen) &&
		sameBits(lm.areaSum[v], r.area) && samePoint(lm.mapPos[v], r.pos)
	if lm.opt.Mode == ModeDelay && (lm.blockA[v] == nil || !lm.blockA[v].Equal(lm.bestBlock)) {
		lm.blockA[v] = lm.bestBlock.Clone()
		same = false
	}
	if same {
		return
	}
	lm.best[v], lm.wCost[v], lm.areaSum[v], lm.mapPos[v] = r.best, r.wlen, r.area, r.pos
	lm.stamps[v].ver++
}

// checkNode evaluates v afresh and fails unless the result equals the one
// kept by reusing the whole evaluation, bit for bit.
func (lm *lily) checkNode(v logic.NodeID, matches []match.Match, memo *nodeMemo) error {
	r, err := lm.evaluate(v, matches, nil)
	if err != nil {
		return err
	}
	if r.best != lm.best[v] || !sameBits(r.wlen, lm.wCost[v]) || !sameBits(r.area, lm.areaSum[v]) ||
		!samePoint(r.pos, lm.mapPos[v]) || r.pruned != memo.pruned ||
		(lm.opt.Mode == ModeDelay && !lm.blockA[v].Equal(lm.bestBlock)) {
		return fmt.Errorf("core: reused evaluation of %q differs from a fresh one", lm.sub.Nodes[v].Name)
	}
	return nil
}

// reuseMismatch is checkReuse's error for a memoized candidate cost that
// differs from a fresh one.
func (lm *lily) reuseMismatch(v logic.NodeID, m *match.Match) error {
	return fmt.Errorf("core: reused cost of %s at %q differs from a fresh one", m.Gate.Name, lm.sub.Nodes[v].Name)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePoint(a, b geom.Point) bool { return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) }

// Wave-parallel cone mapping (DESIGN.md §13). The exit-line cone order
// of §3.5 is partitioned into waves: maximal consecutive runs whose
// cones are mutually independent — no cone's support overlaps another's
// one-hop neighborhood. Within a wave every cone's dynamic programming
// reads only state frozen before the wave (plus node slots private to
// its own support), so the cones evaluate concurrently on a bounded
// worker pool and their results are committed strictly in cone order.
// State transitions, fanout-epoch bumps, the lifecycle trace, and the
// periodic global re-placement all replay exactly as the sequential
// schedule (runConesSequential) would have produced them, which is why
// the mapped output is bit-identical at any Parallelism setting.
package core

import (
	"sync"
	"sync/atomic"

	"lily/internal/geom"
	"lily/internal/logic"
	"lily/internal/timing"
	"lily/internal/wire"
)

// nodeBitset is a dense NodeID set used for the wave-planning overlap
// tests; one word-parallel intersects call replaces a hash-set probe
// per node.
type nodeBitset []uint64

func newNodeBitset(n int) nodeBitset { return make(nodeBitset, (n+63)/64) }

func (b nodeBitset) set(i logic.NodeID) { b[int(i)>>6] |= 1 << (uint(i) & 63) }

func (b nodeBitset) intersects(o nodeBitset) bool {
	for w, x := range b {
		if x&o[w] != 0 {
			return true
		}
	}
	return false
}

func (b nodeBitset) orWith(o nodeBitset) {
	for w := range b {
		b[w] |= o[w]
	}
}

func (b nodeBitset) clear() {
	for w := range b {
		b[w] = 0
	}
}

// planWaves splits the cone order into waves of independent cones. Two
// cones may share a wave only when neither's support set S (the
// reverse-DFS node set, PIs included — everything the cone's DP writes
// or reads positions of) intersects the other's extended set E = S ∪
// fanouts(S) (everything the cone's DP reads the lifecycle state or
// fan lists of). That guarantees no cone in a wave can observe another
// wave member's tentative writes or the in-order commits that follow
// them, so frozen-state evaluation equals sequential evaluation. Waves
// are consecutive runs — a cone incompatible with the open wave closes
// it rather than searching ahead, preserving the §3.5 order — and a
// wave also closes at every ReplaceEvery boundary so the global
// re-placement never lands mid-wave.
func (lm *lily) planWaves(order []int) [][]int {
	n := len(lm.sub.Nodes)
	waveS, waveE := newNodeBitset(n), newNodeBitset(n)
	coneS, coneE := newNodeBitset(n), newNodeBitset(n)
	var waves [][]int
	var wave []int // positions into order
	flush := func() {
		if len(wave) > 0 {
			waves = append(waves, wave)
			wave = nil
			waveS.clear()
			waveE.clear()
		}
	}
	for pos := range order {
		root := lm.sub.POs[order[pos]]
		coneS.clear()
		coneE.clear()
		for _, v := range lm.sub.ReverseDFS(root) {
			coneS.set(v)
			coneE.set(v)
			for _, fo := range lm.sub.Fanouts(v) {
				coneE.set(fo)
			}
		}
		if coneS.intersects(waveE) || coneE.intersects(waveS) {
			flush()
		}
		wave = append(wave, pos)
		waveS.orWith(coneS)
		waveE.orWith(coneE)
		// stats.ConesProcessed after position pos is pos+1, so this is
		// exactly the finishCone re-placement trigger.
		if lm.opt.ReplaceEvery > 0 && (pos+1)%lm.opt.ReplaceEvery == 0 {
			flush()
		}
	}
	flush()
	return waves
}

// newWorker builds a wave worker: a shallow copy of the run that shares
// the per-node value arrays (each wave's cones write disjoint slots of
// state/best/cost/wCost/areaSum/mapPos/blockA) and the read-only inputs
// (subject graph, library, backend memo, positions, load hints), but
// owns every piece of evaluation scratch — pooled wire buffers, match
// geometry, merged/fan stamp sets, delay buffers — so no epoch cache or
// scratch slice is ever touched by two goroutines. The private trace
// starts non-nil so setState records every transition for in-order
// replay on the main run.
func (lm *lily) newWorker() *lily {
	n := len(lm.sub.Nodes)
	w := new(lily)
	*w = *lm
	w.ws = wire.Get()
	w.geo = matchGeometry{}
	w.rects = nil
	w.ptsWork = nil
	w.mergedStamp = make([]uint32, n)
	w.mergedEpoch = 0
	// fanVer is shared (the version array is the cross-schedule source of
	// truth); the caches it validates are private. A fresh zero fanStamp
	// can never equal fanVer (which starts at 1 and only grows), so every
	// first read rebuilds. The hawk-prefix summaries travel with the
	// private lists.
	w.fanStamp = make([]uint64, n)
	w.fanLists = make([][]trueFanout, n)
	w.fanHawkCnt = make([]int32, n)
	w.fanHawkRect = make([]geom.Rect, n)
	w.inArr = nil
	w.arrBuf = nil
	w.evalBlock = new(timing.BlockArrival)
	w.bestBlock = new(timing.BlockArrival)
	w.pruned = 0
	w.trace = make([]Transition, 0, 64)
	w.reawakened = nil
	return w
}

// coneOutcome is one wave member's evaluation result, captured for the
// in-order merge.
type coneOutcome struct {
	err        error
	trans      []Transition
	reawakened []logic.NodeID
}

// runConesParallel is the parallel schedule: evaluate each wave's cones
// concurrently against the frozen pre-wave state, then merge strictly
// in cone order — replay the recorded lifecycle transitions (epoch
// bumps and trace), restore the cone's reawakened list, and run the
// sequential commit tail. Errors surface in cone order: a failed cone
// masks everything after it, exactly as the sequential loop would.
func (lm *lily) runConesParallel(order []int) error {
	// Pre-warm the backend memo sequentially: match and cut enumeration
	// use shared scratch, but a memo hit is a pure read. The sequential
	// schedule enumerates the same nodes, just lazily.
	for id, nd := range lm.sub.Nodes {
		if nd != nil && nd.Kind == logic.KindLogic {
			lm.backend.MatchesAt(logic.NodeID(id))
		}
	}

	waves := lm.planWaves(order)
	maxWave := 0
	for _, wv := range waves {
		if len(wv) > maxWave {
			maxWave = len(wv)
		}
	}
	nw := lm.opt.Parallelism
	if nw > maxWave {
		nw = maxWave
	}
	var workers []*lily
	defer func() {
		for _, w := range workers {
			wire.Put(w.ws)
			lm.pruned += w.pruned
		}
	}()
	for i := 0; i < nw; i++ {
		workers = append(workers, lm.newWorker())
	}

	for _, wave := range waves {
		if err := lm.ctx.Err(); err != nil {
			return err
		}
		if len(wave) == 1 {
			// Singleton wave: run the sequential path on the main state —
			// no capture or replay needed.
			pos := wave[0]
			root := lm.sub.POs[order[pos]]
			if err := lm.processCone(root); err != nil {
				return err
			}
			if err := lm.finishCone(root, pos, len(order)); err != nil {
				return err
			}
			continue
		}

		outcomes := make([]coneOutcome, len(wave))
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, w := range workers[:min(nw, len(wave))] {
			wg.Add(1)
			go func(w *lily) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(wave) {
						return
					}
					if err := w.ctx.Err(); err != nil {
						outcomes[i] = coneOutcome{err: err}
						continue
					}
					// The worker's private fan caches self-invalidate:
					// commits and re-placements since its last cone bumped
					// the shared fanVer slots of every signal they touched,
					// so stale lists rebuild on first read and untouched
					// ones stay warm across waves.
					w.trace = w.trace[:0]
					root := w.sub.POs[order[wave[i]]]
					err := w.processCone(root)
					outcomes[i] = coneOutcome{
						err:        err,
						trans:      append([]Transition(nil), w.trace...),
						reawakened: append([]logic.NodeID(nil), w.reawakened...),
					}
				}
			}(w)
		}
		wg.Wait()

		for wi, pos := range wave {
			c := &outcomes[wi]
			if c.err != nil {
				return c.err
			}
			// The workers' setState calls already wrote the shared state
			// slots and bumped the shared fan versions; only the trace
			// needs in-order replay here.
			if lm.trace != nil {
				lm.trace = append(lm.trace, c.trans...)
			}
			lm.reawakened = append(lm.reawakened[:0], c.reawakened...)
			if err := lm.finishCone(lm.sub.POs[order[pos]], pos, len(order)); err != nil {
				return err
			}
		}
	}
	return nil
}

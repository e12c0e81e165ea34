package place

// Hypergraph is the netlist view the Fiduccia–Mattheyses partitioner works
// on: cells with areas, and nets as lists of cell indices. Cells belonging
// to a single net position are deduplicated by the caller.
type Hypergraph struct {
	Areas []float64
	Nets  [][]int
}

// NumCells returns the number of cells.
func (h *Hypergraph) NumCells() int { return len(h.Areas) }

// CutSize counts the nets with pins on both sides of the partition.
func (h *Hypergraph) CutSize(part []int) int {
	cut := 0
	for _, net := range h.Nets {
		has0, has1 := false, false
		for _, c := range net {
			if part[c] == 0 {
				has0 = true
			} else {
				has1 = true
			}
		}
		if has0 && has1 {
			cut++
		}
	}
	return cut
}

// FM refines the initial bipartition part (0/1 per cell) in place using the
// Fiduccia–Mattheyses pass algorithm with area balance tolerance tol (each
// side stays within (0.5±tol) of the total area, loosened if the initial
// partition is already outside). It returns the final cut size.
func FM(h *Hypergraph, part []int, tol float64, maxPasses int) int {
	n := h.NumCells()
	if n == 0 {
		return 0
	}
	total := 0.0
	side := [2]float64{}
	for c, a := range h.Areas {
		total += a
		side[part[c]] += a
	}
	maxCell := 0.0
	for _, a := range h.Areas {
		if a > maxCell {
			maxCell = a
		}
	}
	// Classic FM balance criterion: each side may deviate from half the
	// total by tol·total or one maximum cell area, whichever is larger —
	// otherwise no single move is ever legal.
	dev := tol * total
	if maxCell > dev {
		dev = maxCell
	}
	lo := total/2 - dev
	hi := total/2 + dev
	// Loosen bounds if the seed partition violates them (e.g. one huge cell).
	if side[0] < lo || side[1] < lo {
		m := side[0]
		if side[1] < m {
			m = side[1]
		}
		lo = m
		hi = total - m
	}

	// Pin counts per net per side, and each cell's nets in ascending
	// order as one flat array: cell c's nets are
	// netsFlat[netsStart[c]:netsStart[c+1]]. The first pass counts pins
	// per cell and turns the counts into each cell's end offset; the
	// second walks the nets backwards, moving each cell's offset down to
	// its start as it places them.
	cnt := make([][2]int, len(h.Nets))
	netsStart := make([]int, n+1)
	for ni, net := range h.Nets {
		for _, c := range net {
			cnt[ni][part[c]]++
			netsStart[c]++
		}
	}
	maxDeg := 1
	for c, end := 0, 0; c < n; c++ {
		maxDeg = max(maxDeg, netsStart[c])
		end += netsStart[c]
		netsStart[c] = end
	}
	netsStart[n] = netsStart[n-1]
	netsFlat := make([]int, netsStart[n])
	for ni := len(h.Nets) - 1; ni >= 0; ni-- {
		for _, c := range h.Nets[ni] {
			netsStart[c]--
			netsFlat[netsStart[c]] = ni
		}
	}
	netsOf := func(c int) []int { return netsFlat[netsStart[c]:netsStart[c+1]] }

	gain := make([]int, n)
	computeGain := func(c int) int {
		g := 0
		from := part[c]
		to := 1 - from
		for _, ni := range netsOf(c) {
			if cnt[ni][from] == 1 {
				g++ // moving c uncuts (or keeps uncut) this net
			}
			if cnt[ni][to] == 0 {
				g-- // moving c newly cuts this net
			}
		}
		return g
	}

	// The pass state is allocated once and reset at the start of each
	// pass.
	b := newBuckets(n, maxDeg)
	locked := make([]bool, n)
	type move struct {
		cell int
		cut  int
	}
	moves := make([]move, 0, n)
	bestCut := h.CutSize(part)
	for pass := 0; pass < maxPasses; pass++ {
		b.reset()
		clear(locked)
		moves = moves[:0]
		for c := 0; c < n; c++ {
			gain[c] = computeGain(c)
			b.insert(c, gain[c])
		}
		curCut := h.CutSize(part)
		runCut := curCut

		for moved := 0; moved < n; moved++ {
			// Highest-gain cell whose move keeps balance.
			c := b.popBest(func(c int) bool {
				from := part[c]
				newFrom := side[from] - h.Areas[c]
				newTo := side[1-from] + h.Areas[c]
				return newFrom >= lo-1e-9 && newTo <= hi+1e-9
			})
			if c < 0 {
				break
			}
			from := part[c]
			to := 1 - from
			// Update gains of neighbors before flipping counts (standard FM
			// incremental update).
			for _, ni := range netsOf(c) {
				// Before move: if net had 0 pins on 'to', every unlocked
				// pin gains +1 when c arrives there... use the classic
				// update rules.
				if cnt[ni][to] == 0 {
					for _, d := range h.Nets[ni] {
						if !locked[d] && d != c {
							b.update(d, gain[d], gain[d]+1)
							gain[d]++
						}
					}
				} else if cnt[ni][to] == 1 {
					for _, d := range h.Nets[ni] {
						if !locked[d] && d != c && part[d] == to {
							b.update(d, gain[d], gain[d]-1)
							gain[d]--
						}
					}
				}
				cnt[ni][from]--
				cnt[ni][to]++
				if cnt[ni][from] == 0 {
					for _, d := range h.Nets[ni] {
						if !locked[d] && d != c {
							b.update(d, gain[d], gain[d]-1)
							gain[d]--
						}
					}
				} else if cnt[ni][from] == 1 {
					for _, d := range h.Nets[ni] {
						if !locked[d] && d != c && part[d] == from {
							b.update(d, gain[d], gain[d]+1)
							gain[d]++
						}
					}
				}
			}
			runCut -= gain[c]
			side[from] -= h.Areas[c]
			side[to] += h.Areas[c]
			part[c] = to
			locked[c] = true
			moves = append(moves, move{c, runCut})
		}

		// Roll back to the best prefix.
		bestIdx := -1
		bestPrefix := curCut
		for i, m := range moves {
			if m.cut < bestPrefix {
				bestPrefix = m.cut
				bestIdx = i
			}
		}
		for i := len(moves) - 1; i > bestIdx; i-- {
			c := moves[i].cell
			from := part[c]
			to := 1 - from
			side[from] -= h.Areas[c]
			side[to] += h.Areas[c]
			part[c] = to
		}
		// Recompute counts after rollback.
		for ni := range cnt {
			cnt[ni] = [2]int{}
			for _, c := range h.Nets[ni] {
				cnt[ni][part[c]]++
			}
		}
		if bestPrefix >= bestCut {
			break
		}
		bestCut = bestPrefix
	}
	return h.CutSize(part)
}

// buckets is the FM gain-bucket structure: doubly linked lists per gain
// value with a moving max pointer.
type buckets struct {
	offset  int
	head    []int // per gain bucket -> first cell or -1
	next    []int
	prev    []int
	bucket  []int // per cell -> bucket index or -1
	maxIdx  int
	numLive int
}

// newBuckets allocates the structure for n cells with gains in
// [-maxGain, maxGain]; reset must run before the first insert.
func newBuckets(n, maxGain int) *buckets {
	return &buckets{
		offset: maxGain,
		head:   make([]int, 2*maxGain+1),
		next:   make([]int, n),
		prev:   make([]int, n),
		bucket: make([]int, n),
	}
}

// reset empties every bucket; next and prev are rewritten on insert.
func (b *buckets) reset() {
	for i := range b.head {
		b.head[i] = -1
	}
	for i := range b.bucket {
		b.bucket[i] = -1
	}
	b.maxIdx = -1
	b.numLive = 0
}

func (b *buckets) insert(c, gain int) {
	idx := gain + b.offset
	b.bucket[c] = idx
	b.prev[c] = -1
	b.next[c] = b.head[idx]
	if b.head[idx] >= 0 {
		b.prev[b.head[idx]] = c
	}
	b.head[idx] = c
	if idx > b.maxIdx {
		b.maxIdx = idx
	}
	b.numLive++
}

func (b *buckets) remove(c int) {
	idx := b.bucket[c]
	if idx < 0 {
		return
	}
	if b.prev[c] >= 0 {
		b.next[b.prev[c]] = b.next[c]
	} else {
		b.head[idx] = b.next[c]
	}
	if b.next[c] >= 0 {
		b.prev[b.next[c]] = b.prev[c]
	}
	b.bucket[c] = -1
	b.numLive--
}

func (b *buckets) update(c, oldGain, newGain int) {
	if b.bucket[c] < 0 {
		return // already popped/locked
	}
	b.remove(c)
	b.insert(c, newGain)
}

// popBest removes and returns the highest-gain cell satisfying ok, or -1.
func (b *buckets) popBest(ok func(c int) bool) int {
	for idx := b.maxIdx; idx >= 0; idx-- {
		for c := b.head[idx]; c >= 0; c = b.next[c] {
			if ok(c) {
				b.remove(c)
				// Lower maxIdx lazily.
				for b.maxIdx >= 0 && b.head[b.maxIdx] < 0 {
					b.maxIdx--
				}
				return c
			}
		}
	}
	return -1
}

package mis

import (
	"runtime"
	"strconv"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/match"
)

// withCopies returns lib with every gate repeated copies more times under
// a new name and one µm² more area, so matching finds copies+1 times as
// many candidates at every node, while a copy never beats its original
// (gates are visited in name order, the original first, and area-mode
// ties and delay-mode equal arrivals go to the smaller area).
func withCopies(lib *library.Library, copies int) *library.Library {
	out := *lib
	out.Gates = append([]*library.Gate(nil), lib.Gates...)
	for c := 1; c <= copies; c++ {
		for _, g := range lib.Gates {
			d := *g
			d.Name += "_copy" + strconv.Itoa(c)
			d.Area += float64(c)
			out.Gates = append(out.Gates, &d)
		}
	}
	return &out
}

// allocCost returns the allocation count and bytes of one call of f.
func allocCost(t *testing.T, f func() error) (allocs, bytes uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestMapAllocsIgnoreCandidateCount: MIS reads each node's candidates
// once and keeps only the winner, so what Map allocates does not grow
// with the number of candidates per node. With four times the candidates
// at every node (each gate in the library four times), Map makes at most
// a few more allocations, the matcher's scratch growing to the longest
// list, and its bytes grow by under an eighth of what memoizing every
// node's match list (AtNode) grows by.
func TestMapAllocsIgnoreCandidateCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	p, ok := bench.ProfileByName("C432")
	if !ok {
		t.Fatal("no profile C432")
	}
	res, err := decomp.Premap(bench.Generate(p))
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Inchoate
	lib, big := library.Big(), withCopies(library.Big(), 3)
	memo := func(lib *library.Library) func() error {
		return func() error {
			mt := match.NewMatcher(sub, lib)
			for _, nd := range sub.Nodes {
				if nd != nil {
					mt.AtNode(nd.ID)
				}
			}
			return nil
		}
	}
	_, m1 := allocCost(t, memo(lib))
	_, m4 := allocCost(t, memo(big))
	const slackAllocs = 32
	for _, mode := range []Mode{ModeArea, ModeDelay} {
		opt := DefaultOptions(mode)
		mapWith := func(lib *library.Library) func() error {
			return func() error {
				_, err := Map(sub, lib, opt)
				return err
			}
		}
		a1, b1 := allocCost(t, mapWith(lib))
		a4, b4 := allocCost(t, mapWith(big))
		if a4 > a1+slackAllocs {
			t.Errorf("%v: four times the candidates cost %d allocations, against %d", mode, a4, a1)
		}
		if b4 > b1 && (b4-b1)*8 > m4-m1 {
			t.Errorf("%v: four times the candidates cost %d more bytes; memoized match lists grow by %d",
				mode, b4-b1, m4-m1)
		}
	}
}

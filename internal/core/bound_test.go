package core

import (
	"context"
	"math"
	"testing"

	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
	"lily/internal/place"
)

// boundProbe wraps the run's backend: every time the DP fetches a node's
// candidates — right before evaluateArea sees them, in the same state —
// it checks each feasible candidate's lower bound against its exact cost.
type boundProbe struct {
	Backend
	t      *testing.T
	lm     *lily
	name   string
	checks int
}

func (p *boundProbe) MatchesAt(v logic.NodeID) []match.Match {
	matches := p.Backend.MatchesAt(v)
	for i := range matches {
		m := &matches[i]
		lb := p.lm.areaBound(m)
		if math.IsInf(lb, 1) {
			continue // infeasible: evaluateArea never costs it
		}
		cost, _, _, _ := p.lm.areaMatchCost(v, m)
		if !(lb <= cost) {
			p.t.Errorf("%s: node %d match %s: bound %v exceeds cost %v",
				p.name, v, m.Gate.Name, lb, cost)
		}
		p.checks++
	}
	return matches
}

// TestAreaBoundNeverExceedsCost checks the branch-and-bound invariant bit
// for bit: over the small paper circuits at the ASIC and 6-LUT targets,
// every candidate the area-mode DP considers has areaBound <= its exact
// cost, with no epsilon.
func TestAreaBoundNeverExceedsCost(t *testing.T) {
	lib := library.Big()
	for _, name := range []string{"misex1", "b9", "C432", "9symml", "duke2"} {
		_, sub := subjectFor(t, name)
		pl, err := place.Global(sub, baseWidth(sub, lib), lib.RowHeight, place.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, tgt := range []Target{TargetASIC, TargetLUT6} {
			opt := DefaultOptions(ModeArea)
			opt.Target = tgt
			lm := newLily(context.Background(), sub, lib, pl, opt, nil)
			probe := &boundProbe{Backend: lm.backend, t: t, lm: lm, name: name + "/" + tgt.String()}
			lm.backend = probe
			if _, err := lm.run(); err != nil {
				t.Fatalf("%s: %v", probe.name, err)
			}
			if probe.checks == 0 || lm.pruned == 0 {
				t.Errorf("%s: %d bounds checked, %d candidates pruned; want both > 0",
					probe.name, probe.checks, lm.pruned)
			}
		}
	}
}

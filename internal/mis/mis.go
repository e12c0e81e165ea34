// Package mis implements the baseline technology mapper the paper compares
// against: the MIS 2.1 / DAGON style dynamic-programming cover that
// minimizes active gate area (area mode) or output arrival time under a
// positional-information-free load model (timing mode). Interconnect is
// invisible to this mapper — that blindness is exactly what Lily (package
// core) removes.
package mis

import (
	"fmt"
	"math"
	"slices"

	"lily/internal/cover"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
	"lily/internal/netlist"
	"lily/internal/timing"
)

// Mode selects the optimization objective.
type Mode int

const (
	// ModeArea minimizes the sum of gate areas.
	ModeArea Mode = iota
	// ModeDelay minimizes the worst output arrival time.
	ModeDelay
)

func (m Mode) String() string {
	if m == ModeDelay {
		return "delay"
	}
	return "area"
}

// Options tunes the baseline mapper.
type Options struct {
	Mode Mode
	// TreeMode restricts covering to DAGON's tree partition: matches may
	// not swallow multi-fanout nodes. Off by default (MIS cone covering
	// with duplication, which "implements DAGON as a subset", §2).
	TreeMode bool
}

// fanoutCapPerPin is the per-fanout wiring capacitance (pF) of the MIS
// load model C_w = k·n (§4.2).
const fanoutCapPerPin = 0.03

// DefaultOptions returns the configuration used in the paper's tables.
func DefaultOptions(mode Mode) Options {
	return Options{Mode: mode}
}

// Map covers the subject graph sub with gates from lib.
func Map(sub *logic.Network, lib *library.Library, opt Options) (*netlist.Netlist, error) {
	if err := validateSubject(sub); err != nil {
		return nil, err
	}
	mt := match.NewMatcher(sub, lib)
	order, err := sub.TopoOrder()
	if err != nil {
		return nil, err
	}

	// Per subject node: the chosen match, the area of the cone it roots
	// and, in delay mode, its output arrival. Primary inputs keep zero
	// area and a zero arrival.
	best := make([]*match.Match, len(sub.Nodes))
	area := make([]float64, len(sub.Nodes))
	arr := make([]timing.Arrival, len(sub.Nodes))
	// ins and ba hold one candidate's input and block arrivals; they are
	// reused across candidates, so every pin is written before it is read.
	var ins []timing.Arrival
	var ba timing.BlockArrival

	for _, v := range order {
		nd := sub.Nodes[v]
		if nd.Kind != logic.KindLogic {
			continue
		}
		matches := mt.AtNode(v)
		if opt.TreeMode {
			matches = filterTree(sub, matches)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("mis: node %q has no admissible matches", nd.Name)
		}
		// Constant-load assumption (§4.3): every fanout pin presents the
		// library's uniform input capacitance; wiring follows the
		// fanout-count model.
		var cl float64
		if opt.Mode == ModeDelay {
			n := float64(sub.FanoutCount(v))
			cl = n*lib.Inv.InputCap + fanoutCapPerPin*n
		}
		var bm *match.Match
		bArr := timing.Arrival{Rise: math.Inf(1), Fall: math.Inf(1)}
		bArea := math.Inf(1)
		for _, m := range matches {
			a := m.Gate.Area
			ins = slices.Grow(ins[:0], len(m.Inputs))[:len(m.Inputs)]
			for i, in := range m.Inputs {
				a += area[in]
				ins[i] = arr[in]
			}
			switch opt.Mode {
			case ModeArea:
				if a < bArea {
					bArea, bm = a, m
				}
			case ModeDelay:
				ba.Fill(m.Gate, ins)
				if out := ba.Output(cl); timing.Better(out, a, bArr, bArea) {
					bArr, bArea, bm = out, a, m
				}
			}
		}
		if bm == nil {
			return nil, fmt.Errorf("mis: no feasible match at %q", nd.Name)
		}
		best[v], area[v], arr[v] = bm, bArea, bArr
	}

	nl, _, err := cover.BuildNetlist(sub, func(v logic.NodeID) *match.Match { return best[v] }, sub.Name)
	return nl, err
}

func filterTree(sub *logic.Network, ms []*match.Match) []*match.Match {
	out := ms[:0:0]
	for _, m := range ms {
		if match.InternalFanoutFree(sub, m) {
			out = append(out, m)
		}
	}
	return out
}

func validateSubject(sub *logic.Network) error {
	for _, nd := range sub.Nodes {
		if nd == nil || nd.Kind != logic.KindLogic {
			continue
		}
		if len(nd.Fanins) > 2 {
			return fmt.Errorf("mis: node %q is not a base function; premap first", nd.Name)
		}
	}
	return nil
}

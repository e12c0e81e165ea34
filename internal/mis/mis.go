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
	// area and a zero arrival. The cover reads each node's candidates
	// once, so they come from the matcher's scratch unmemoized; only a
	// winner's IDs are kept, copied into ids, one growing slab per run.
	best := make([]match.Match, len(sub.Nodes))
	var ids []logic.NodeID
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
		matches := mt.Enumerate(v)
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
		for i := range matches {
			m := &matches[i]
			a := m.Gate.Area
			inputs := m.Inputs()
			ins = slices.Grow(ins[:0], len(inputs))[:len(inputs)]
			for pin, in := range inputs {
				a += area[in]
				ins[pin] = arr[in]
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
		at := len(ids)
		ids = append(append(ids, bm.Inputs()...), bm.Merged()...)
		best[v] = match.NewMatch(bm.Gate, ids[at:len(ids):len(ids)])
		area[v], arr[v] = bArea, bArr
	}

	nl, _, err := cover.BuildNetlist(sub, func(v logic.NodeID) *match.Match {
		if best[v].Gate == nil {
			return nil
		}
		return &best[v]
	}, sub.Name)
	return nl, err
}

// filterTree keeps the matches that swallow no multi-fanout node,
// compacting ms in place.
func filterTree(sub *logic.Network, ms []match.Match) []match.Match {
	out := ms[:0]
	for i := range ms {
		if match.InternalFanoutFree(sub, &ms[i]) {
			out = append(out, ms[i])
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

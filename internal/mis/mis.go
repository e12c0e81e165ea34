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

	best := make(map[logic.NodeID]*match.Match)
	bestCost := make(map[logic.NodeID]float64)       // area mode
	bestArr := make(map[logic.NodeID]timing.Arrival) // delay mode
	bestArea := make(map[logic.NodeID]float64)
	// ins holds one delay-mode candidate's input arrivals; it is reused
	// across candidates, so every pin is written before the arrival is read.
	var ins []timing.Arrival

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
		switch opt.Mode {
		case ModeArea:
			var bm *match.Match
			bc := math.Inf(1)
			for _, m := range matches {
				c := m.Gate.Area
				ok := true
				for _, in := range m.Inputs {
					if sub.Nodes[in].Kind == logic.KindLogic {
						ic, has := bestCost[in]
						if !has {
							ok = false
							break
						}
						c += ic
					}
				}
				if ok && c < bc {
					bc, bm = c, m
				}
			}
			if bm == nil {
				return nil, fmt.Errorf("mis: no feasible match at %q", nd.Name)
			}
			best[v], bestCost[v] = bm, bc
		case ModeDelay:
			var bm *match.Match
			ba := timing.Arrival{Rise: math.Inf(1), Fall: math.Inf(1)}
			bArea := math.Inf(1)
			// Constant-load assumption (§4.3): every fanout pin presents
			// the library's uniform input capacitance; wiring follows the
			// fanout-count model.
			n := sub.FanoutCount(v)
			cl := float64(n)*lib.Inv.InputCap + fanoutCapPerPin*float64(n)
			for _, m := range matches {
				ins = slices.Grow(ins[:0], len(m.Inputs))[:len(m.Inputs)]
				ok := true
				area := m.Gate.Area
				for i, in := range m.Inputs {
					if sub.Nodes[in].Kind == logic.KindPI {
						ins[i] = timing.Arrival{}
						continue
					}
					a, has := bestArr[in]
					if !has {
						ok = false
						break
					}
					ins[i] = a
					area += bestArea[in]
				}
				if !ok {
					continue
				}
				out := timing.GateOutputArrival(m.Gate, ins, cl)
				if better(out, area, ba, bArea) {
					ba, bArea, bm = out, area, m
				}
			}
			if bm == nil {
				return nil, fmt.Errorf("mis: no feasible match at %q", nd.Name)
			}
			best[v], bestArr[v], bestArea[v] = bm, ba, bArea
		}
	}

	nl, _, err := cover.BuildNetlist(sub, func(v logic.NodeID) *match.Match { return best[v] }, sub.Name)
	return nl, err
}

// better orders (arrival, area) pairs: smaller worst-phase arrival wins,
// area breaks ties.
func better(a timing.Arrival, areaA float64, b timing.Arrival, areaB float64) bool {
	am, bm := a.Max(), b.Max()
	if math.Abs(am-bm) > 1e-12 {
		return am < bm
	}
	return areaA < areaB
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

package timing

import (
	"math"
	"sort"

	"lily/internal/library"
	"lily/internal/netlist"
)

// SlackReport extends an analysis with required times and slacks against a
// target clock period: required times propagate backward from the primary
// outputs (required = period at every PO), and slack = required − arrival.
// Negative slack marks cells on paths that miss the period.
type SlackReport struct {
	// Period is the timing constraint the report was computed against.
	Period float64
	// CellSlack is the worst-phase slack at each cell output.
	CellSlack []float64
	// WorstSlack is the minimum slack over all cells.
	WorstSlack float64
	// ViolatingCells counts cells with negative slack.
	ViolatingCells int
	// CriticalCells lists cell indices in ascending slack order (the
	// worst first), capped at 32 entries.
	CriticalCells []int
}

// Slack computes required times and slacks for a finished analysis.
// Wire delay is lumped into the driving gate (the net is a capacitance,
// §4.2), so the required time at a gate input equals the required time at
// the driver output.
func Slack(nl *netlist.Netlist, lib *library.Library, res *Result, period float64) (*SlackReport, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	reqRise := make([]float64, len(nl.Cells))
	reqFall := make([]float64, len(nl.Cells))
	for i := range reqRise {
		reqRise[i] = math.Inf(1)
		reqFall[i] = math.Inf(1)
	}
	for _, po := range nl.POs {
		if !po.Driver.IsPI {
			ci := po.Driver.Index
			reqRise[ci] = math.Min(reqRise[ci], period)
			reqFall[ci] = math.Min(reqFall[ci], period)
		}
	}
	// Backward propagation in reverse topological order: the required time
	// at input pin i of cell c constrains the driver of that pin.
	for k := len(order) - 1; k >= 0; k-- {
		ci := order[k]
		c := nl.Cells[ci]
		cl := res.CellLoad[ci]
		for pin, r := range c.Inputs {
			if r.IsPI {
				continue
			}
			di := r.Index
			pt := c.Gate.Timing[pin]
			// An output requirement constrains whichever input phase can
			// cause that output transition.
			viaRise := reqRise[ci] - pt.IntrinsicRise - pt.ResistRise*cl
			viaFall := reqFall[ci] - pt.IntrinsicFall - pt.ResistFall*cl
			same, opposite := phases(c.Gate.Unate[pin])
			if same {
				reqRise[di] = math.Min(reqRise[di], viaRise)
				reqFall[di] = math.Min(reqFall[di], viaFall)
			}
			if opposite {
				reqFall[di] = math.Min(reqFall[di], viaRise)
				reqRise[di] = math.Min(reqRise[di], viaFall)
			}
		}
	}

	rep := &SlackReport{Period: period, CellSlack: make([]float64, len(nl.Cells)), WorstSlack: math.Inf(1)}
	for ci := range nl.Cells {
		sr := reqRise[ci] - res.CellArrival[ci].Rise
		sf := reqFall[ci] - res.CellArrival[ci].Fall
		s := math.Min(sr, sf)
		rep.CellSlack[ci] = s
		if s < rep.WorstSlack {
			rep.WorstSlack = s
		}
		if s < -1e-12 {
			rep.ViolatingCells++
		}
	}
	idx := make([]int, len(nl.Cells))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return rep.CellSlack[idx[a]] < rep.CellSlack[idx[b]] })
	if len(idx) > 32 {
		idx = idx[:32]
	}
	rep.CriticalCells = idx
	return rep, nil
}

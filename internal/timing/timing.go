// Package timing implements the linear delay model and static timing
// analysis of the paper (§4): delay through a gate from input i is
// I_i + R_i·C_L with separate rising and falling parameters, the load
// C_L = ΣC_j + C_w sums the fanout pin capacitances and a wiring
// capacitance C_w = c_h·X + c_v·Y derived from the estimated net geometry,
// and wire resistance is ignored (the net is a lumped capacitance, so the
// arrival time at a fanout input equals the arrival at the driver output).
package timing

import (
	"fmt"
	"math"

	"lily/internal/library"
	"lily/internal/netlist"
	"lily/internal/wire"
)

const (
	// wireModel is the wiring estimator used for net geometry.
	wireModel = wire.ModelHPWLSteiner
	// piArrival is the arrival time at every primary input (ns).
	piArrival = 0.0
)

// Options has no settable values: the analysis always uses the
// positional wiring capacitance (Lily, §4.2) over the HPWL-Steiner
// estimate.
//
// Deprecated: ignored; kept only while the benchmark harness passes it.
type Options struct{}

// DefaultOptions returns the empty Options.
//
// Deprecated: ignored; kept only while the benchmark harness calls it.
func DefaultOptions() Options { return Options{} }

// NetLoad returns the output load C_L = ΣC_j + C_w of a net (§4.2): the
// input capacitances of its sink pins plus the wiring capacitance
// c_h·X + c_v·Y of the net's geometry under the given estimator.
func NetLoad(nl *netlist.Netlist, lib *library.Library, net netlist.Net, ws *wire.Scratch, model wire.Model) float64 {
	cl := 0.0
	for _, s := range net.Sinks {
		cl += nl.Cells[s.Cell].Gate.InputCap
	}
	x, y := ws.LengthXY(model, nl.NetPins(net))
	cl += lib.WireCapH*x + lib.WireCapV*y
	return cl
}

// Arrival is a rise/fall arrival-time pair.
type Arrival struct {
	Rise, Fall float64
}

// Max returns the worse of the two phases.
func (a Arrival) Max() float64 {
	if a.Rise > a.Fall {
		return a.Rise
	}
	return a.Fall
}

// PathStep is one element of a critical path.
type PathStep struct {
	Name    string  // cell or PI name
	Gate    string  // gate name, empty for PIs
	Arrival float64 // worst arrival at this signal
	Load    float64 // pF driven by this signal
}

// Result holds the analysis outcome.
type Result struct {
	// CellArrival holds the output arrival of each cell.
	CellArrival []Arrival
	// CellLoad holds each cell's output load in pF.
	CellLoad []float64
	// MaxDelay is the worst arrival over all primary outputs (ns).
	MaxDelay float64
	// CriticalPO names the output where MaxDelay occurs.
	CriticalPO string
	// CriticalPath walks from a primary input to the critical output.
	CriticalPath []PathStep
}

// Analyze runs static timing analysis over the mapped, placed netlist.
func Analyze(nl *netlist.Netlist, lib *library.Library, _ Options) (*Result, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}

	// Output load per driver.
	cellLoad := make([]float64, len(nl.Cells))
	piLoad := make([]float64, len(nl.PINames))
	var ws wire.Scratch
	for _, net := range nl.Nets() {
		cl := NetLoad(nl, lib, net, &ws, wireModel)
		if net.Driver.IsPI {
			piLoad[net.Driver.Index] = cl
		} else {
			cellLoad[net.Driver.Index] = cl
		}
	}

	arr := make([]Arrival, len(nl.Cells))
	type argMax struct {
		pin      int
		fromRise bool
	}
	argRise := make([]argMax, len(nl.Cells))
	argFall := make([]argMax, len(nl.Cells))

	refArr := func(r netlist.Ref) Arrival {
		if r.IsPI {
			return Arrival{Rise: piArrival, Fall: piArrival}
		}
		return arr[r.Index]
	}

	for _, ci := range order {
		c := nl.Cells[ci]
		cl := cellLoad[ci]
		rise, fall := math.Inf(-1), math.Inf(-1)
		var ar, af argMax
		for pin, r := range c.Inputs {
			in := refArr(r)
			pt := c.Gate.Timing[pin]
			u := c.Gate.Unate[pin]
			// Candidate output-rise arrivals through this pin.
			if u == library.UnatePos || u == library.Binate {
				if t := in.Rise + pt.IntrinsicRise + pt.ResistRise*cl; t > rise {
					rise, ar = t, argMax{pin, true}
				}
			}
			if u == library.UnateNeg || u == library.Binate {
				if t := in.Fall + pt.IntrinsicRise + pt.ResistRise*cl; t > rise {
					rise, ar = t, argMax{pin, false}
				}
			}
			// Candidate output-fall arrivals.
			if u == library.UnatePos || u == library.Binate {
				if t := in.Fall + pt.IntrinsicFall + pt.ResistFall*cl; t > fall {
					fall, af = t, argMax{pin, false}
				}
			}
			if u == library.UnateNeg || u == library.Binate {
				if t := in.Rise + pt.IntrinsicFall + pt.ResistFall*cl; t > fall {
					fall, af = t, argMax{pin, true}
				}
			}
		}
		if len(c.Inputs) == 0 {
			rise, fall = piArrival, piArrival
		}
		arr[ci] = Arrival{Rise: rise, Fall: fall}
		argRise[ci] = ar
		argFall[ci] = af
	}

	res := &Result{CellArrival: arr, CellLoad: cellLoad, MaxDelay: math.Inf(-1)}
	var critRef netlist.Ref
	for _, po := range nl.POs {
		a := refArr(po.Driver).Max()
		if a > res.MaxDelay {
			res.MaxDelay = a
			res.CriticalPO = po.Name
			critRef = po.Driver
		}
	}
	if len(nl.POs) == 0 {
		return nil, fmt.Errorf("timing: netlist has no primary outputs")
	}

	// Backtrack the critical path.
	var path []PathStep
	r := critRef
	useRise := true
	if !r.IsPI {
		useRise = arr[r.Index].Rise >= arr[r.Index].Fall
	}
	for !r.IsPI {
		ci := r.Index
		c := nl.Cells[ci]
		path = append(path, PathStep{
			Name: c.Name, Gate: c.Gate.Name,
			Arrival: arr[ci].Max(), Load: cellLoad[ci],
		})
		var am argMax
		if useRise {
			am = argRise[ci]
		} else {
			am = argFall[ci]
		}
		if am.pin >= len(c.Inputs) {
			break
		}
		r = c.Inputs[am.pin]
		useRise = am.fromRise
	}
	if r.IsPI {
		path = append(path, PathStep{
			Name: nl.PINames[r.Index], Arrival: piArrival, Load: piLoad[r.Index],
		})
	}
	// Reverse: PI first.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	res.CriticalPath = path
	return res, nil
}

// GateOutputArrival computes the rise/fall output arrival of one gate given
// per-pin input arrivals and the output load — the recursive formula of
// §4.1, used both by the analyzer and by the delay-mode mappers.
func GateOutputArrival(g *library.Gate, in []Arrival, cl float64) Arrival {
	rise, fall := math.Inf(-1), math.Inf(-1)
	for pin := range in {
		pt := g.Timing[pin]
		u := g.Unate[pin]
		if u == library.UnatePos || u == library.Binate {
			if t := in[pin].Rise + pt.IntrinsicRise + pt.ResistRise*cl; t > rise {
				rise = t
			}
			if t := in[pin].Fall + pt.IntrinsicFall + pt.ResistFall*cl; t > fall {
				fall = t
			}
		}
		if u == library.UnateNeg || u == library.Binate {
			if t := in[pin].Fall + pt.IntrinsicRise + pt.ResistRise*cl; t > rise {
				rise = t
			}
			if t := in[pin].Rise + pt.IntrinsicFall + pt.ResistFall*cl; t > fall {
				fall = t
			}
		}
	}
	if len(in) == 0 {
		return Arrival{}
	}
	return Arrival{Rise: rise, Fall: fall}
}

// BlockArrival is the load-independent part of an arrival computation
// (paper §4.3): b_i = t_i + I_i per pin and phase. Adding R_i·C_L later
// gives the output arrival without revisiting the inputs — "only the
// R_i·C_L part has to be redone for different loads".
type BlockArrival struct {
	// RiseB[i] is the block arrival contributing to the OUTPUT rise
	// through pin i (already routed through the pin's unateness);
	// similarly FallB.
	RiseB []float64
	FallB []float64
	// RiseR and FallR are the per-pin output resistances.
	RiseR []float64
	FallR []float64
}

// NewBlockArrival precomputes block arrival times for a gate instance.
func NewBlockArrival(g *library.Gate, in []Arrival) *BlockArrival {
	b := new(BlockArrival)
	b.Fill(g, in)
	return b
}

// Fill populates b for a gate instance, reusing its slices — the zero-alloc
// equivalent of NewBlockArrival for the delay-mode mapper's per-match inner
// loop. The computed values are identical.
func (b *BlockArrival) Fill(g *library.Gate, in []Arrival) {
	n := len(in)
	if cap(b.RiseB) < n {
		b.RiseB = make([]float64, n)
		b.FallB = make([]float64, n)
		b.RiseR = make([]float64, n)
		b.FallR = make([]float64, n)
	}
	b.RiseB, b.FallB = b.RiseB[:n], b.FallB[:n]
	b.RiseR, b.FallR = b.RiseR[:n], b.FallR[:n]
	for pin := 0; pin < n; pin++ {
		pt := g.Timing[pin]
		u := g.Unate[pin]
		riseIn := math.Inf(-1)
		fallIn := math.Inf(-1)
		if u == library.UnatePos || u == library.Binate {
			riseIn = math.Max(riseIn, in[pin].Rise)
			fallIn = math.Max(fallIn, in[pin].Fall)
		}
		if u == library.UnateNeg || u == library.Binate {
			riseIn = math.Max(riseIn, in[pin].Fall)
			fallIn = math.Max(fallIn, in[pin].Rise)
		}
		b.RiseB[pin] = riseIn + pt.IntrinsicRise
		b.FallB[pin] = fallIn + pt.IntrinsicFall
		b.RiseR[pin] = pt.ResistRise
		b.FallR[pin] = pt.ResistFall
	}
}

// Clone returns a deep copy of b, for retaining a winning candidate's
// block arrivals beyond a scratch buffer's lifetime.
func (b *BlockArrival) Clone() *BlockArrival {
	return &BlockArrival{
		RiseB: append([]float64(nil), b.RiseB...),
		FallB: append([]float64(nil), b.FallB...),
		RiseR: append([]float64(nil), b.RiseR...),
		FallR: append([]float64(nil), b.FallR...),
	}
}

// Output computes the output arrival for a given load from the block
// arrival times: t_y = max_i { b_i + R_i·C_L }.
func (b *BlockArrival) Output(cl float64) Arrival {
	rise, fall := math.Inf(-1), math.Inf(-1)
	for i := range b.RiseB {
		if t := b.RiseB[i] + b.RiseR[i]*cl; t > rise {
			rise = t
		}
		if t := b.FallB[i] + b.FallR[i]*cl; t > fall {
			fall = t
		}
	}
	if len(b.RiseB) == 0 {
		return Arrival{}
	}
	return Arrival{Rise: rise, Fall: fall}
}

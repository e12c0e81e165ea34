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
	"slices"

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

// NetLoad returns the output load C_L of a net (§4.2): the input
// capacitances of its sink pins plus the wiring capacitance of the net's
// geometry under the given estimator.
func NetLoad(nl *netlist.Netlist, lib *library.Library, net netlist.Net, ws *wire.Scratch, model wire.Model) float64 {
	caps := 0.0
	for _, s := range net.Sinks {
		caps += nl.Cells[s.Cell].Gate.InputCap
	}
	x, y := ws.LengthXY(model, nl.NetPins(net))
	return Load(lib, caps, x, y)
}

// Load is the output load C_L = ΣC_j + C_w of §4.2 for pin capacitances
// caps = ΣC_j and a net geometry of horizontal length x and vertical
// length y: C_w = c_h·X + c_v·Y, added to the pins as one term.
func Load(lib *library.Library, caps, x, y float64) float64 {
	return caps + (lib.WireCapH*x + lib.WireCapV*y)
}

// arrivalTie is the margin (ns) within which two worst arrivals are equal
// in the delay-mode order.
const arrivalTie = 1e-12

// Better is the delay-mode order of both mappers: the candidate whose
// worst-phase arrival is earlier by more than arrivalTie wins, and within
// the margin the smaller area does.
func Better(a Arrival, areaA float64, b Arrival, areaB float64) bool {
	am, bm := a.Max(), b.Max()
	if math.Abs(am-bm) > arrivalTie {
		return am < bm
	}
	return areaA < areaB
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
	var ba BlockArrival
	var ins []Arrival
	for _, ci := range order {
		c := nl.Cells[ci]
		ins = inputArrivals(ins, c, arr)
		ba.Fill(c.Gate, ins)
		arr[ci] = ba.Output(cellLoad[ci])
	}

	res := &Result{CellArrival: arr, CellLoad: cellLoad, MaxDelay: math.Inf(-1)}
	var critRef netlist.Ref
	for _, po := range nl.POs {
		a := arrivalAt(po.Driver, arr).Max()
		if a > res.MaxDelay {
			res.MaxDelay = a
			res.CriticalPO = po.Name
			critRef = po.Driver
		}
	}
	if len(nl.POs) == 0 {
		return nil, fmt.Errorf("timing: netlist has no primary outputs")
	}

	// Backtrack the critical path, refilling each cell on it to find the
	// pin and input phase that set its arrival.
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
		if len(c.Inputs) == 0 {
			break
		}
		ins = inputArrivals(ins, c, arr)
		ba.Fill(c.Gate, ins)
		pin, fromRise := ba.critical(c.Gate, ins, cellLoad[ci], useRise)
		r, useRise = c.Inputs[pin], fromRise
	}
	if r.IsPI {
		path = append(path, PathStep{
			Name: nl.PINames[r.Index], Arrival: piArrival, Load: piLoad[r.Index],
		})
	}
	slices.Reverse(path) // PI first
	res.CriticalPath = path
	return res, nil
}

// arrivalAt is the arrival of signal r given the cell arrivals arr.
func arrivalAt(r netlist.Ref, arr []Arrival) Arrival {
	if r.IsPI {
		return Arrival{Rise: piArrival, Fall: piArrival}
	}
	return arr[r.Index]
}

// inputArrivals refills buf with the arrival at each input pin of c.
func inputArrivals(buf []Arrival, c *netlist.Cell, arr []Arrival) []Arrival {
	buf = buf[:0]
	for _, r := range c.Inputs {
		buf = append(buf, arrivalAt(r, arr))
	}
	return buf
}

// phases is the one rule for which input phase drives which output
// phase through a pin of unateness u: an input transition in the same
// direction moves the output when the pin is positive unate or binate,
// one in the opposite direction when it is negative unate or binate.
func phases(u library.Unateness) (same, opposite bool) {
	return u != library.UnateNeg, u != library.UnatePos
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

// Fill computes b for a gate instance with input arrivals in, reusing
// b's slices, so the delay-mode mappers' per-match inner loop and the
// analyzer's per-cell loop allocate nothing in steady state.
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
		riseIn, fallIn := math.Inf(-1), math.Inf(-1)
		same, opposite := phases(g.Unate[pin])
		if same {
			riseIn, fallIn = in[pin].Rise, in[pin].Fall
		}
		if opposite {
			riseIn, fallIn = math.Max(riseIn, in[pin].Fall), math.Max(fallIn, in[pin].Rise)
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

// Equal reports whether b and o hold the same per-pin values, bit for
// bit.
func (b *BlockArrival) Equal(o *BlockArrival) bool {
	return sameFloats(b.RiseB, o.RiseB) && sameFloats(b.FallB, o.FallB) &&
		sameFloats(b.RiseR, o.RiseR) && sameFloats(b.FallR, o.FallR)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Output computes the output arrival for a given load from the block
// arrival times: t_y = max_i { b_i + R_i·C_L }.
func (b *BlockArrival) Output(cl float64) Arrival {
	if len(b.RiseB) == 0 {
		return Arrival{}
	}
	_, rise := latest(b.RiseB, b.RiseR, cl)
	_, fall := latest(b.FallB, b.FallR, cl)
	return Arrival{Rise: rise, Fall: fall}
}

// latest returns the first pin i whose b_i + R_i·C_L is the maximum, and
// that maximum; pin −1 at −∞ when no pin exceeds −∞.
func latest(blk, res []float64, cl float64) (pin int, t float64) {
	pin, t = -1, math.Inf(-1)
	for i := range blk {
		if v := blk[i] + res[i]*cl; v > t {
			pin, t = i, v
		}
	}
	return pin, t
}

// critical returns the input pin and input phase that set output phase
// rise (else fall) of the gate g, whose inputs arrive at in and which b
// was filled from, at load cl: the latest pin, entered through the same
// phase unless the pin is binate and the opposite phase arrives strictly
// later.
func (b *BlockArrival) critical(g *library.Gate, in []Arrival, cl float64, rise bool) (pin int, fromRise bool) {
	blk, res := b.FallB, b.FallR
	if rise {
		blk, res = b.RiseB, b.RiseR
	}
	pin, _ = latest(blk, res, cl)
	same, opposite := phases(g.Unate[pin])
	if same && opposite {
		inSame, inOpp, intr := in[pin].Fall, in[pin].Rise, g.Timing[pin].IntrinsicFall
		if rise {
			inSame, inOpp, intr = in[pin].Rise, in[pin].Fall, g.Timing[pin].IntrinsicRise
		}
		same = inSame+intr+res[pin]*cl >= inOpp+intr+res[pin]*cl
	}
	return pin, same == rise
}

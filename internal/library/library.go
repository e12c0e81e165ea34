// Package library models the target standard-cell library: gate areas and
// physical dimensions, per-input linear delay parameters (intrinsic delay
// and output resistance, rise and fall), input pin capacitances, and the
// NAND2/INV pattern graphs used for structural matching.
//
// The paper evaluated against the 3µ MSU standard cell library scaled to
// 1µ; since that library is not redistributable, this package generates a
// synthetic CMOS library with the same parameter structure (§4.1, §4.3:
// constant 0.25 pF-class input capacitance, per-input I_i and R_i split
// into rise/fall). Two variants reproduce the paper's §5 discussion: a
// "tiny" library with gates up to 3 inputs and a "big" library with gates
// up to 6 inputs.
package library

import (
	"fmt"

	"lily/internal/logic"
)

// PinTiming holds the linear delay model parameters for one gate input
// (paper §4.1): the intrinsic delay I_i and output resistance R_i, each
// with separate rising and falling values. Delay from input i to the
// output is I_i + R_i * C_L.
type PinTiming struct {
	IntrinsicRise float64 // ns
	IntrinsicFall float64 // ns
	ResistRise    float64 // ns per pF
	ResistFall    float64 // ns per pF
}

// Gate is one library cell.
type Gate struct {
	Name      string
	NumInputs int
	// Area is the active cell area in µm²; Width and Height are the cell's
	// physical dimensions for row-based layout (Height is uniform across
	// the library).
	Area   float64
	Width  float64
	Height float64
	// InputCap is the parasitic capacitance of each input pin in pF. The
	// paper (and MIS 2.1) assume a constant load per pin; 0.25 pF for the
	// 3µ MSU library.
	InputCap float64
	// Timing holds per-input delay parameters.
	Timing []PinTiming
	// Cover is the gate function over its inputs (positional).
	Cover logic.SOP
	// Unate records the unateness of the function in each input, used by
	// the timing analyzer to route rising/falling arrivals through the
	// gate correctly.
	Unate []Unateness
	// Patterns are the structural NAND2/INV decompositions of the gate.
	Patterns []*Pattern
}

// Unateness describes how a gate output depends on one input.
type Unateness byte

const (
	// UnatePos: the output is non-decreasing in the input (AND, OR).
	UnatePos Unateness = iota
	// UnateNeg: the output is non-increasing in the input (NAND, NOR, INV).
	UnateNeg
	// Binate: the output can move either way (XOR).
	Binate
)

func (u Unateness) String() string {
	switch u {
	case UnatePos:
		return "pos"
	case UnateNeg:
		return "neg"
	default:
		return "binate"
	}
}

func (g *Gate) String() string {
	return fmt.Sprintf("%s(%d-in, %.0fµm²)", g.Name, g.NumInputs, g.Area)
}

// Library is a set of gates plus the technology constants the wiring model
// needs.
type Library struct {
	Name  string
	Gates []*Gate
	// Inv and Nand2 are the base-function cells used to cost the inchoate
	// network and to seed placement.
	Inv   *Gate
	Nand2 *Gate
	// Buf is a non-inverting driver used only by the fanout-optimization
	// pass (paper §5 future work: "perform a postprocessing pass to
	// derive fanout trees"). It carries no pattern graphs, so the
	// matchers never select it.
	Buf *Gate
	// WireCapH and WireCapV are horizontal/vertical interconnect
	// capacitance per unit length (pF/µm), used for C_w = c_h·X + c_v·Y
	// (paper §4.2).
	WireCapH float64
	WireCapV float64
	// WirePitch is the routing pitch in µm (one track per pitch); the
	// channel-density area model uses it.
	WirePitch float64
	// RowHeight is the uniform standard-cell height in µm.
	RowHeight float64
	// MaxFanin is the largest gate input count in the library.
	MaxFanin int
}

// GateByName returns the named gate, or nil.
func (l *Library) GateByName(name string) *Gate {
	for _, g := range l.Gates {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// gateSpec is the internal description a library is generated from.
type gateSpec struct {
	name  string
	width float64 // cell width in µm
	drive float64 // relative drive strength; scales output resistance down
	logic expr    // function over pins
}

// Technology constants for the synthetic 1µ library. Values follow the
// paper's setup: a 3µ-era cell library scaled to 1µ (delays, gate and wire
// capacitance scaled by 1/3).
const (
	rowHeightUm  = 60.0
	wirePitchUm  = 4.0
	inputCapPF   = 0.083 // 0.25 pF (3µ MSU) scaled to 1µ
	wireCapHPerU = 0.00015
	wireCapVPerU = 0.00018
	baseIntr     = 0.40 // ns, base intrinsic delay of a minimal stage
	baseResist   = 3.6  // ns/pF, base output resistance of a 1x driver
)

// Big returns the ≤6-input library used for the paper's main tables.
func Big() *Library { return build("big", bigSpecs(), 8) }

// Tiny returns the ≤3-input library used in the §5 tiny-vs-big discussion.
func Tiny() *Library { return build("tiny", tinySpecs(), 8) }

func tinySpecs() []gateSpec {
	return []gateSpec{
		{"inv", 16, 1.0, not{in(0)}},
		{"nand2", 24, 1.0, not{and{in(0), in(1)}}},
		{"nand3", 32, 0.9, not{and{in(0), in(1), in(2)}}},
		{"nor2", 24, 0.9, not{or{in(0), in(1)}}},
		{"nor3", 32, 0.8, not{or{in(0), in(1), in(2)}}},
		{"and2", 32, 1.0, and{in(0), in(1)}},
		{"or2", 32, 0.9, or{in(0), in(1)}},
		{"aoi21", 32, 0.9, not{or{and{in(0), in(1)}, in(2)}}},
		{"oai21", 32, 0.9, not{and{or{in(0), in(1)}, in(2)}}},
		{"xor2", 48, 0.8, or{and{in(0), not{in(1)}}, and{not{in(0)}, in(1)}}},
		{"xnor2", 48, 0.8, or{and{in(0), in(1)}, and{not{in(0)}, not{in(1)}}}},
	}
}

func bigSpecs() []gateSpec {
	specs := tinySpecs()
	specs = append(specs, []gateSpec{
		{"nand4", 40, 0.85, not{and{in(0), in(1), in(2), in(3)}}},
		{"nand5", 48, 0.8, not{and{in(0), in(1), in(2), in(3), in(4)}}},
		{"nand6", 56, 0.75, not{and{in(0), in(1), in(2), in(3), in(4), in(5)}}},
		{"nor4", 40, 0.75, not{or{in(0), in(1), in(2), in(3)}}},
		{"nor5", 48, 0.7, not{or{in(0), in(1), in(2), in(3), in(4)}}},
		{"nor6", 56, 0.65, not{or{in(0), in(1), in(2), in(3), in(4), in(5)}}},
		{"and3", 40, 0.95, and{in(0), in(1), in(2)}},
		{"and4", 48, 0.9, and{in(0), in(1), in(2), in(3)}},
		{"or3", 40, 0.85, or{in(0), in(1), in(2)}},
		{"or4", 48, 0.8, or{in(0), in(1), in(2), in(3)}},
		{"aoi22", 40, 0.85, not{or{and{in(0), in(1)}, and{in(2), in(3)}}}},
		{"aoi211", 40, 0.85, not{or{and{in(0), in(1)}, in(2), in(3)}}},
		{"aoi221", 48, 0.8, not{or{and{in(0), in(1)}, and{in(2), in(3)}, in(4)}}},
		{"aoi222", 56, 0.75, not{or{and{in(0), in(1)}, and{in(2), in(3)}, and{in(4), in(5)}}}},
		{"oai22", 40, 0.85, not{and{or{in(0), in(1)}, or{in(2), in(3)}}}},
		{"oai211", 40, 0.85, not{and{or{in(0), in(1)}, in(2), in(3)}}},
		{"oai221", 48, 0.8, not{and{or{in(0), in(1)}, or{in(2), in(3)}, in(4)}}},
		{"oai222", 56, 0.75, not{and{or{in(0), in(1)}, or{in(2), in(3)}, or{in(4), in(5)}}}},
	}...)
	return specs
}

func build(name string, specs []gateSpec, maxPatternsPerGate int) *Library {
	lib := &Library{
		Name:      name,
		WireCapH:  wireCapHPerU,
		WireCapV:  wireCapVPerU,
		WirePitch: wirePitchUm,
		RowHeight: rowHeightUm,
	}
	for _, sp := range specs {
		n := numPins(sp.logic)
		g := &Gate{
			Name:      sp.name,
			NumInputs: n,
			Width:     sp.width,
			Height:    rowHeightUm,
			Area:      sp.width * rowHeightUm,
			InputCap:  inputCapPF,
			Cover:     exprToSOP(sp.logic, n),
		}
		g.Unate = truthTableUnateness(g.Cover)
		// Delay parameters: deeper/wider gates are intrinsically slower;
		// stronger drive lowers output resistance. Rising transitions are
		// slightly slower than falling, as in CMOS cells (p-stack).
		depth := float64(exprDepth(sp.logic))
		for i := 0; i < n; i++ {
			// Later pins are closer to the output in the series stack, a
			// common standard-cell asymmetry.
			pinSkew := 1 + 0.05*float64(i)
			g.Timing = append(g.Timing, PinTiming{
				IntrinsicRise: baseIntr * (0.6 + 0.4*depth) * pinSkew * 1.1,
				IntrinsicFall: baseIntr * (0.6 + 0.4*depth) * pinSkew,
				ResistRise:    baseResist / sp.drive * 1.15,
				ResistFall:    baseResist / sp.drive,
			})
		}
		g.Patterns = generatePatterns(g, sp.logic, maxPatternsPerGate)
		lib.Gates = append(lib.Gates, g)
		if g.NumInputs > lib.MaxFanin {
			lib.MaxFanin = g.NumInputs
		}
	}
	lib.Inv = lib.GateByName("inv")
	lib.Nand2 = lib.GateByName("nand2")
	if lib.Inv == nil || lib.Nand2 == nil {
		panic("library: missing base cells")
	}
	lib.Buf = buildBuffer()
	lib.Gates = append(lib.Gates, lib.Buf)
	return lib
}

// LUT technology constants, following the same 1µ scaling as the cell
// specs above: a K-input lookup table is a fixed mux tree plus 2^K
// configuration bits, so its footprint has a constant part and a part
// proportional to the bit count, and its pin-to-output delay is
// function-independent (every input drives the same select network).
const (
	lutBaseWidthUm = 20.0 // select tree + output driver
	lutBitWidthUm  = 3.0  // per configuration bit
	lutDrive       = 0.9  // output driver strength relative to a 1x cell
)

// NewLUT constructs a lookup-table cell implementing the given cover
// inside a tileK-input LUT tile (cover.NumInputs <= tileK <= 6). The
// footprint and delay are those of the tile, not the function: an FPGA
// logic element is a fixed resource, so a 2-input function in a 6-LUT
// occupies a whole 6-LUT — which is what makes minimizing LUT count the
// area objective. LUT cells carry no pattern graphs (they are
// synthesized on demand by the cut enumerator in internal/cut, not
// matched structurally), and their delay model is pin-uniform: the
// select tree gives every input the same path to the output, with
// intrinsic delay growing in the tree depth tileK. Pin unateness comes
// from the cover's truth table, a few word operations per pin.
func NewLUT(name string, cover logic.SOP, tileK int) *Gate {
	k := cover.NumInputs
	if tileK < k || tileK > len(logic.VarTT) {
		panic(fmt.Sprintf("library: %d-input cover in a %d-LUT tile, want k <= tileK <= 6", k, tileK))
	}
	width := lutBaseWidthUm + lutBitWidthUm*float64(uint(1)<<tileK)
	g := &Gate{
		Name:      name,
		NumInputs: k,
		Width:     width,
		Height:    rowHeightUm,
		Area:      width * rowHeightUm,
		InputCap:  inputCapPF,
		Cover:     cover,
		Unate:     truthTableUnateness(cover),
	}
	for i := 0; i < k; i++ {
		g.Timing = append(g.Timing, PinTiming{
			IntrinsicRise: baseIntr * (0.6 + 0.3*float64(tileK)) * 1.1,
			IntrinsicFall: baseIntr * (0.6 + 0.3*float64(tileK)),
			ResistRise:    baseResist / lutDrive * 1.15,
			ResistFall:    baseResist / lutDrive,
		})
	}
	return g
}

// truthTableUnateness classifies each input of a cover of at most six
// inputs from its truth word, one word operation per pin: the output can
// rise with input i iff some row has cofactors f0 = 0 and f1 = 1, and fall
// iff some row has f0 = 1 and f1 = 0.
func truthTableUnateness(cover logic.SOP) []Unateness {
	tt := cover.TruthWord()
	out := make([]Unateness, cover.NumInputs)
	for i := range out {
		f0, f1 := logic.Cofactors(tt, i)
		canRise := f1&^f0 != 0
		canFall := f0&^f1 != 0
		switch {
		case canRise && canFall:
			out[i] = Binate
		case canFall:
			out[i] = UnateNeg
		default:
			out[i] = UnatePos
		}
	}
	return out
}

// buildBuffer constructs the pattern-less buffer cell. A buffer's
// NAND2/INV pattern would be the empty INV pair, which premapping always
// cancels, so it is excluded from matching by construction.
func buildBuffer() *Gate {
	g := &Gate{
		Name:      "buf",
		NumInputs: 1,
		Width:     20,
		Height:    rowHeightUm,
		Area:      20 * rowHeightUm,
		InputCap:  inputCapPF,
		Cover:     logic.BufSOP(),
	}
	g.Unate = truthTableUnateness(g.Cover)
	g.Timing = []PinTiming{{
		IntrinsicRise: baseIntr * 1.4 * 1.1,
		IntrinsicFall: baseIntr * 1.4,
		ResistRise:    baseResist / 1.4 * 1.15,
		ResistFall:    baseResist / 1.4,
	}}
	return g
}

// Package netlist defines the mapped circuit produced by the technology
// mappers: a network of library gate instances with placement positions,
// shared by the timing analyzer (package timing) and the layout backend
// (package layout).
package netlist

import (
	"fmt"

	"lily/internal/geom"
	"lily/internal/library"
)

// Ref identifies a signal driver: a primary input or a cell output.
type Ref struct {
	IsPI bool
	// Index is a PI index when IsPI, else a cell index.
	Index int
}

// Cell is one placed gate instance.
type Cell struct {
	Name string
	Gate *library.Gate
	// Inputs holds the driver of each gate pin (positional).
	Inputs []Ref
	// Pos is the cell's placement position (center, point model).
	Pos geom.Point
}

// PO is a primary output: a named pad driven by a signal.
type PO struct {
	Name   string
	Driver Ref
	Pad    geom.Point
}

// Netlist is a mapped combinational circuit.
type Netlist struct {
	Name    string
	PINames []string
	PIPos   []geom.Point
	Cells   []*Cell
	POs     []PO
}

// AddCell appends a cell and returns its index.
func (nl *Netlist) AddCell(c *Cell) int {
	nl.Cells = append(nl.Cells, c)
	return len(nl.Cells) - 1
}

// PIIndex returns the index of the named primary input, or -1.
func (nl *Netlist) PIIndex(name string) int {
	for i, n := range nl.PINames {
		if n == name {
			return i
		}
	}
	return -1
}

// Check validates pin counts, reference ranges, and acyclicity.
func (nl *Netlist) Check() error {
	for ci, c := range nl.Cells {
		if c.Gate == nil {
			return fmt.Errorf("netlist: cell %d has no gate", ci)
		}
		if len(c.Inputs) != c.Gate.NumInputs {
			return fmt.Errorf("netlist: cell %s(%s) has %d inputs, gate wants %d",
				c.Name, c.Gate.Name, len(c.Inputs), c.Gate.NumInputs)
		}
		for _, r := range c.Inputs {
			if err := nl.checkRef(r); err != nil {
				return fmt.Errorf("netlist: cell %s: %w", c.Name, err)
			}
		}
	}
	for _, po := range nl.POs {
		if err := nl.checkRef(po.Driver); err != nil {
			return fmt.Errorf("netlist: PO %s: %w", po.Name, err)
		}
	}
	if _, err := nl.TopoOrder(); err != nil {
		return err
	}
	return nil
}

func (nl *Netlist) checkRef(r Ref) error {
	if r.IsPI {
		if r.Index < 0 || r.Index >= len(nl.PINames) {
			return fmt.Errorf("bad PI ref %d", r.Index)
		}
		return nil
	}
	if r.Index < 0 || r.Index >= len(nl.Cells) {
		return fmt.Errorf("bad cell ref %d", r.Index)
	}
	return nil
}

// TopoOrder returns cell indices in topological order (drivers first) or an
// error on a combinational cycle.
func (nl *Netlist) TopoOrder() ([]int, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(nl.Cells))
	order := make([]int, 0, len(nl.Cells))
	type frame struct {
		c, i int
	}
	var stack []frame
	for root := range nl.Cells {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], frame{root, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			cell := nl.Cells[f.c]
			if f.i < len(cell.Inputs) {
				r := cell.Inputs[f.i]
				f.i++
				if !r.IsPI {
					switch color[r.Index] {
					case white:
						color[r.Index] = gray
						stack = append(stack, frame{r.Index, 0})
					case gray:
						return nil, fmt.Errorf("netlist: cycle through cell %s", nl.Cells[r.Index].Name)
					}
				}
				continue
			}
			color[f.c] = black
			order = append(order, f.c)
			stack = stack[:len(stack)-1]
		}
	}
	return order, nil
}

// Eval simulates the netlist for the given PI assignment.
func (nl *Netlist) Eval(in map[string]bool) (map[string]bool, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	piVal := make([]bool, len(nl.PINames))
	for i, name := range nl.PINames {
		v, ok := in[name]
		if !ok {
			return nil, fmt.Errorf("netlist: missing input %q", name)
		}
		piVal[i] = v
	}
	cellVal := make([]bool, len(nl.Cells))
	refVal := func(r Ref) bool {
		if r.IsPI {
			return piVal[r.Index]
		}
		return cellVal[r.Index]
	}
	for _, ci := range order {
		c := nl.Cells[ci]
		row := 0
		for i, r := range c.Inputs {
			if refVal(r) {
				row |= 1 << i
			}
		}
		cellVal[ci] = c.Gate.Truth>>row&1 == 1
	}
	out := make(map[string]bool, len(nl.POs))
	for _, po := range nl.POs {
		out[po.Name] = refVal(po.Driver)
	}
	return out, nil
}

// Net is a signal net: a driver and its sink pins plus any PO pads.
type Net struct {
	Driver Ref
	// Sinks lists (cell, pin) pairs the net feeds.
	Sinks []SinkPin
	// POPads lists pad positions of primary outputs on this net.
	POPads []geom.Point
	// PONames lists the PO names in POPads order.
	PONames []string
}

// SinkPin identifies a cell input pin.
type SinkPin struct {
	Cell int
	Pin  int
}

// Nets enumerates all nets with at least one sink or pad, keyed by driver:
// PI-driven nets in PI order, then cell-driven nets in cell order. A first
// pass counts every driver's sinks and PO pads, so the result, the sink
// lists and the pad lists are each one exact-size allocation; each net's
// lists are capped at their length, and a net without sinks or pads has a
// nil list.
func (nl *Netlist) Nets() []Net {
	nPI := len(nl.PINames)
	slot := func(r Ref) int {
		if r.IsPI {
			return r.Index
		}
		return nPI + r.Index
	}
	sinks := make([]int, nPI+len(nl.Cells))
	pos := make([]int, nPI+len(nl.Cells))
	totalSinks := 0
	for _, c := range nl.Cells {
		for _, r := range c.Inputs {
			sinks[slot(r)]++
		}
		totalSinks += len(c.Inputs)
	}
	for _, po := range nl.POs {
		pos[slot(po.Driver)]++
	}
	live := 0
	for d := range sinks {
		if sinks[d]+pos[d] > 0 {
			live++
		}
	}
	out := make([]Net, 0, live)
	sinkBuf := make([]SinkPin, totalSinks)
	padBuf := make([]geom.Point, len(nl.POs))
	nameBuf := make([]string, len(nl.POs))
	// Once driver d's net is laid out, at[d] holds its index in out; at
	// reuses the sink counts, which are spent by then.
	at := sinks
	si, pi := 0, 0
	for d := range sinks {
		if sinks[d]+pos[d] == 0 {
			continue
		}
		n := Net{Driver: Ref{IsPI: true, Index: d}}
		if d >= nPI {
			n.Driver = Ref{Index: d - nPI}
		}
		if k := sinks[d]; k > 0 {
			n.Sinks = sinkBuf[si : si : si+k]
			si += k
		}
		if k := pos[d]; k > 0 {
			n.POPads = padBuf[pi : pi : pi+k]
			n.PONames = nameBuf[pi : pi : pi+k]
			pi += k
		}
		at[d] = len(out)
		out = append(out, n)
	}
	for ci, c := range nl.Cells {
		for pin, r := range c.Inputs {
			n := &out[at[slot(r)]]
			n.Sinks = append(n.Sinks, SinkPin{Cell: ci, Pin: pin})
		}
	}
	for _, po := range nl.POs {
		n := &out[at[slot(po.Driver)]]
		n.POPads = append(n.POPads, po.Pad)
		n.PONames = append(n.PONames, po.Name)
	}
	return out
}

// DriverPos returns the placed position of a signal driver.
func (nl *Netlist) DriverPos(r Ref) geom.Point {
	if r.IsPI {
		return nl.PIPos[r.Index]
	}
	return nl.Cells[r.Index].Pos
}

// NetPins returns the positions of every terminal of the net: driver,
// sink cells, and PO pads.
func (nl *Netlist) NetPins(n Net) []geom.Point {
	pts := make([]geom.Point, 0, 1+len(n.Sinks)+len(n.POPads))
	pts = append(pts, nl.DriverPos(n.Driver))
	for _, s := range n.Sinks {
		pts = append(pts, nl.Cells[s.Cell].Pos)
	}
	pts = append(pts, n.POPads...)
	return pts
}

// Stats summarizes the netlist.
type Stats struct {
	Cells      int
	ActiveArea float64 // µm², sum of gate areas
	ByGate     map[string]int
}

// Stat computes summary statistics.
func (nl *Netlist) Stat() Stats {
	s := Stats{ByGate: make(map[string]int)}
	for _, c := range nl.Cells {
		s.Cells++
		s.ActiveArea += c.Gate.Area
		s.ByGate[c.Gate.Name]++
	}
	return s
}

// RefName renders a driver reference for messages.
func (nl *Netlist) RefName(r Ref) string {
	if r.IsPI {
		return nl.PINames[r.Index]
	}
	return nl.Cells[r.Index].Name
}

package netlist

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"

	"lily/internal/geom"
	"lily/internal/library"
	"lily/internal/logic"
)

// WriteBLIF renders the mapped netlist as a BLIF model using .gate lines
// (the mapped-circuit dialect SIS introduced), with cell placement attached
// as "#@ place <x> <y>" comment directives that ParseBLIF understands.
// Gate pins are named a, b, c, ... positionally, with output pin z.
func WriteBLIF(w io.Writer, nl *Netlist) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", nl.Name)
	fmt.Fprint(bw, ".inputs")
	for _, n := range nl.PINames {
		fmt.Fprintf(bw, " %s", n)
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	for _, po := range nl.POs {
		fmt.Fprintf(bw, " %s", po.Name)
	}
	fmt.Fprintln(bw)
	for i, p := range nl.PIPos {
		fmt.Fprintf(bw, "#@ pad %s %.4f %.4f\n", nl.PINames[i], p.X, p.Y)
	}
	order, err := nl.TopoOrder()
	if err != nil {
		return err
	}
	for _, ci := range order {
		c := nl.Cells[ci]
		fmt.Fprintf(bw, ".gate %s", c.Gate.Name)
		for pin, r := range c.Inputs {
			fmt.Fprintf(bw, " %c=%s", 'a'+pin, nl.RefName(r))
		}
		fmt.Fprintf(bw, " z=%s\n", c.Name)
		fmt.Fprintf(bw, "#@ place %s %.4f %.4f\n", c.Name, c.Pos.X, c.Pos.Y)
	}
	for _, po := range nl.POs {
		if nl.RefName(po.Driver) != po.Name {
			// Alias the driver signal to the output name with a buffer.
			fmt.Fprintf(bw, ".gate buf a=%s z=%s\n", nl.RefName(po.Driver), po.Name)
		}
		fmt.Fprintf(bw, "#@ pad %s %.4f %.4f\n", po.Name, po.Pad.X, po.Pad.Y)
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// ParseBLIF reads a mapped BLIF model written by WriteBLIF (or by SIS-style
// tools restricted to .gate lines over the given library). Placement
// directives are honored when present.
func ParseBLIF(r io.Reader, lib *library.Library) (*Netlist, error) {
	var gates []*library.Gate
	var ins []string
	pos := map[string]map[string]geom.Point{"place": {}, "pad": {}}
	m, err := logic.ReadBLIF(r, logic.BLIFDialect{Keyword: ".gate",
		// Pins are named a, b, c, ... positionally; z is the output.
		Declare: func(f []string) (string, []string, error) {
			if len(f) < 3 {
				return "", nil, fmt.Errorf("netlist: malformed .gate line %q", strings.Join(f, " "))
			}
			g := lib.GateByName(f[1])
			if g == nil {
				return "", nil, fmt.Errorf("netlist: unknown gate %q", f[1])
			}
			ins = append(ins[:0], make([]string, g.NumInputs)...)
			out, bound := "", uint32(0)
			for _, kv := range f[2:] {
				pin, s, ok := strings.Cut(kv, "=")
				i := -1
				if len(pin) == 1 {
					i = int(pin[0]) - 'a'
				}
				switch {
				case !ok:
					return "", nil, fmt.Errorf("netlist: malformed pin binding %q", kv)
				case pin == "z" && out != "", i >= 0 && i < g.NumInputs && bound&(1<<i) != 0:
					return "", nil, fmt.Errorf("netlist: pin %q bound twice in %q", pin, strings.Join(f, " "))
				case pin == "z":
					out = s
				case i < 0 || i >= g.NumInputs:
					return "", nil, fmt.Errorf("netlist: gate %s has no pin %q", g.Name, pin)
				default:
					ins[i], bound = s, bound|1<<i
				}
			}
			if out == "" {
				return "", nil, fmt.Errorf("netlist: .gate without output: %q", strings.Join(f, " "))
			}
			if n := bits.OnesCount32(bound); n != g.NumInputs {
				return "", nil, fmt.Errorf("netlist: gate %s output %s has %d pins, wants %d", g.Name, out, n, g.NumInputs)
			}
			gates = append(gates, g)
			return out, ins, nil
		},
		// A .gate line has no body; "#@ place" and "#@ pad" give positions.
		Body: func(f []string) error {
			if f[0] != "#@" {
				return fmt.Errorf("netlist: unknown directive %q", f[0])
			}
			if len(f) == 5 && pos[f[1]] != nil {
				x, errX := strconv.ParseFloat(f[3], 64)
				y, errY := strconv.ParseFloat(f[4], 64)
				if errX == nil && errY == nil {
					pos[f[1]][f[2]] = geom.Point{X: x, Y: y}
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	nIn, pads := len(m.Inputs), pos["pad"]
	nl := &Netlist{Name: m.Name, PINames: m.Inputs, PIPos: make([]geom.Point, nIn)}
	ref := make([]Ref, nIn+len(m.Decls))
	for i, name := range m.Inputs {
		nl.PIPos[i], ref[i] = pads[name], Ref{IsPI: true, Index: i}
	}
	for _, dc := range m.Order {
		in := make([]Ref, 0, gates[dc].NumInputs)
		for _, s := range m.Fanins(dc) {
			in = append(in, ref[s])
		}
		out := m.Decls[dc]
		ref[nIn+int(dc)] = Ref{Index: nl.AddCell(&Cell{Name: out, Gate: gates[dc], Inputs: in, Pos: pos["place"][out]})}
	}
	for i, out := range m.Outputs {
		nl.POs = append(nl.POs, PO{Name: out, Driver: ref[m.OutputSignals[i]], Pad: pads[out]})
	}
	return nl, nil
}

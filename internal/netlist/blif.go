package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
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
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, logic.MaxBLIFLine)
	nl := &Netlist{}
	type gateLine struct {
		gate *library.Gate
		pins map[string]string // pin -> signal
		out  string
	}
	var gates []gateLine
	var outputs []string
	sawModel := false
	place := make(map[string]geom.Point)
	pads := make(map[string]geom.Point)

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#@") {
			f := strings.Fields(line)
			if len(f) == 5 && (f[1] == "place" || f[1] == "pad") {
				var x, y float64
				if _, err := fmt.Sscanf(f[3]+" "+f[4], "%f %f", &x, &y); err == nil {
					if f[1] == "place" {
						place[f[2]] = geom.Point{X: x, Y: y}
					} else {
						pads[f[2]] = geom.Point{X: x, Y: y}
					}
				}
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case ".model":
			if sawModel {
				return nil, fmt.Errorf("netlist: duplicate .model directive (multi-model BLIF is not supported)")
			}
			sawModel = true
			if len(f) > 1 {
				nl.Name = f[1]
			}
		case ".inputs":
			nl.PINames = append(nl.PINames, f[1:]...)
		case ".outputs":
			outputs = append(outputs, f[1:]...)
		case ".gate":
			if len(f) < 3 {
				return nil, fmt.Errorf("netlist: malformed .gate line %q", line)
			}
			g := lib.GateByName(f[1])
			if g == nil {
				return nil, fmt.Errorf("netlist: unknown gate %q", f[1])
			}
			gl := gateLine{gate: g, pins: make(map[string]string)}
			for _, kv := range f[2:] {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					return nil, fmt.Errorf("netlist: malformed pin binding %q", kv)
				}
				pin, sig := kv[:eq], kv[eq+1:]
				if pin == "z" {
					gl.out = sig
				} else {
					gl.pins[pin] = sig
				}
			}
			if gl.out == "" {
				return nil, fmt.Errorf("netlist: .gate without output: %q", line)
			}
			gates = append(gates, gl)
		case ".end":
		case ".names", ".latch", ".subckt":
			return nil, fmt.Errorf("netlist: unsupported construct %q in mapped BLIF", f[0])
		default:
			return nil, fmt.Errorf("netlist: unknown directive %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	nl.PIPos = make([]geom.Point, len(nl.PINames))
	for i, n := range nl.PINames {
		nl.PIPos[i] = pads[n]
	}
	// Resolve signals: build cells in dependency order.
	refOf := make(map[string]Ref, len(nl.PINames)+len(gates))
	for i, n := range nl.PINames {
		refOf[n] = Ref{IsPI: true, Index: i}
	}
	pending := gates
	for len(pending) > 0 {
		var next []gateLine
		progressed := false
		for _, gl := range pending {
			ready := true
			//lint:sorted all-pins-resolved predicate; result independent of visit order
			for _, sig := range gl.pins {
				if _, ok := refOf[sig]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, gl)
				continue
			}
			progressed = true
			inputs := make([]Ref, gl.gate.NumInputs)
			pinNames := make([]string, 0, len(gl.pins))
			for p := range gl.pins {
				pinNames = append(pinNames, p)
			}
			sort.Strings(pinNames)
			if len(pinNames) != gl.gate.NumInputs {
				return nil, fmt.Errorf("netlist: gate %s output %s has %d pins, wants %d",
					gl.gate.Name, gl.out, len(pinNames), gl.gate.NumInputs)
			}
			for i, p := range pinNames {
				want := string(rune('a' + i))
				if p != want {
					return nil, fmt.Errorf("netlist: gate %s output %s has pin %q, want %q",
						gl.gate.Name, gl.out, p, want)
				}
				inputs[i] = refOf[gl.pins[p]]
			}
			ci := nl.AddCell(&Cell{
				Name: gl.out, Gate: gl.gate, Inputs: inputs, Pos: place[gl.out],
			})
			if _, dup := refOf[gl.out]; dup {
				return nil, fmt.Errorf("netlist: signal %q driven twice", gl.out)
			}
			refOf[gl.out] = Ref{Index: ci}
		}
		if !progressed {
			return nil, fmt.Errorf("netlist: unresolvable signals (cycle or missing driver)")
		}
		pending = next
	}
	for _, out := range outputs {
		r, ok := refOf[out]
		if !ok {
			return nil, fmt.Errorf("netlist: output %q never driven", out)
		}
		nl.POs = append(nl.POs, PO{Name: out, Driver: r, Pad: pads[out]})
	}
	if err := nl.Check(); err != nil {
		return nil, err
	}
	return nl, nil
}

package logic

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// MaxBLIFLine caps the length of one BLIF line at 16 MiB. The parsers'
// scanners start with a small buffer and grow it only as far as the
// longest line needs.
const MaxBLIFLine = 1 << 24

// ParseBLIF reads a combinational BLIF model (.model/.inputs/.outputs/
// .names/.end). Latches and subcircuits are rejected: the Lily flow, like
// the paper, operates on combinational logic only.
func ParseBLIF(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxBLIFLine)

	var lines []string
	var cont strings.Builder
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		if i := strings.Index(raw, "#"); i >= 0 {
			raw = raw[:i]
		}
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		if strings.HasSuffix(raw, "\\") {
			cont.WriteString(strings.TrimSuffix(raw, "\\"))
			cont.WriteByte(' ')
			continue
		}
		cont.WriteString(raw)
		lines = append(lines, cont.String())
		cont.Reset()
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	n := New("blif")
	var outputs []string
	// Nodes may be referenced before definition; collect .names bodies first.
	type namesDecl struct {
		signals []string // inputs... output
		cubes   []string
	}
	var decls []namesDecl
	declared := make(map[string]bool)

	i := 0
	for i < len(lines) {
		fields := strings.Fields(lines[i])
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				n.Name = fields[1]
			}
			i++
		case ".inputs":
			for _, name := range fields[1:] {
				if declared[name] {
					return nil, fmt.Errorf("blif: duplicate signal %q", name)
				}
				declared[name] = true
				n.AddPI(name)
			}
			i++
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
			i++
		case ".names":
			d := namesDecl{signals: fields[1:]}
			if len(d.signals) == 0 {
				return nil, fmt.Errorf("blif: .names with no signals")
			}
			out := d.signals[len(d.signals)-1]
			if declared[out] {
				return nil, fmt.Errorf("blif: signal %q defined twice", out)
			}
			declared[out] = true
			i++
			for i < len(lines) && !strings.HasPrefix(lines[i], ".") {
				d.cubes = append(d.cubes, lines[i])
				i++
			}
			decls = append(decls, d)
		case ".end":
			i = len(lines)
		case ".latch", ".subckt", ".gate":
			return nil, fmt.Errorf("blif: unsupported construct %q (combinational models only)", fields[0])
		default:
			return nil, fmt.Errorf("blif: unknown directive %q", fields[0])
		}
	}

	// Build nodes in dependency order: iterate until all declarations with
	// satisfied fanins are placed (BLIF allows forward references).
	pending := decls
	for len(pending) > 0 {
		progressed := false
		var next []namesDecl
		for _, d := range pending {
			ready := true
			for _, s := range d.signals[:len(d.signals)-1] {
				if n.NodeByName(s) == nil {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, d)
				continue
			}
			progressed = true
			if err := buildNamesNode(n, d.signals, d.cubes); err != nil {
				return nil, err
			}
		}
		if !progressed {
			var missing []string
			for _, d := range pending {
				for _, s := range d.signals[:len(d.signals)-1] {
					if n.NodeByName(s) == nil && !declared[s] {
						missing = append(missing, s)
					}
				}
			}
			if len(missing) > 0 {
				return nil, fmt.Errorf("blif: undeclared signals %v", missing)
			}
			return nil, fmt.Errorf("blif: cyclic .names dependencies")
		}
		pending = next
	}

	for _, out := range outputs {
		nd := n.NodeByName(out)
		if nd == nil {
			return nil, fmt.Errorf("blif: output %q never defined", out)
		}
		n.MarkPO(nd.ID, out)
	}
	if err := n.Check(); err != nil {
		return nil, err
	}
	return n, nil
}

func buildNamesNode(n *Network, signals, cubeLines []string) error {
	out := signals[len(signals)-1]
	ins := signals[: len(signals)-1 : len(signals)-1]
	fanins := make([]NodeID, len(ins))
	for i, s := range ins {
		fanins[i] = n.NodeByName(s).ID
	}
	cover := NewSOP(len(ins))
	onSet := true
	for _, cl := range cubeLines {
		f := strings.Fields(cl)
		var inPart, outPart string
		switch {
		case len(ins) == 0 && len(f) == 1:
			outPart = f[0]
		case len(f) == 2:
			inPart, outPart = f[0], f[1]
		default:
			return fmt.Errorf("blif: malformed cube %q for %q", cl, out)
		}
		if len(inPart) != len(ins) {
			return fmt.Errorf("blif: cube %q width != %d inputs of %q", cl, len(ins), out)
		}
		c := make(Cube, len(ins))
		for i, ch := range inPart {
			switch ch {
			case '1':
				c[i] = LitPos
			case '0':
				c[i] = LitNeg
			case '-':
				c[i] = LitDC
			default:
				return fmt.Errorf("blif: bad literal %q in cube for %q", string(ch), out)
			}
		}
		switch outPart {
		case "1":
			onSet = true
		case "0":
			onSet = false
		default:
			return fmt.Errorf("blif: bad output value %q for %q", outPart, out)
		}
		cover.AddCube(c)
	}
	if !onSet {
		// Off-set cover: the listed cubes describe when the output is 0.
		// Complementing enumerates the truth table, so bound the width —
		// otherwise a hostile model panics the parser (found by fuzzing).
		if len(ins) > MaxEvalInputs {
			return fmt.Errorf("blif: off-set cover for %q has %d inputs; complementing supports at most %d",
				out, len(ins), MaxEvalInputs)
		}
		cover = Complement(cover)
	}
	if len(ins) == 0 && len(cubeLines) == 0 {
		cover = ConstSOP(false)
	}
	n.AddLogic(out, fanins, cover)
	return nil
}

// WriteBLIF renders the network as a combinational BLIF model. Nodes are
// emitted in topological order.
func WriteBLIF(w io.Writer, n *Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", n.Name)
	fmt.Fprintf(bw, ".inputs")
	for _, pi := range n.PIs {
		fmt.Fprintf(bw, " %s", n.Nodes[pi].Name)
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, ".outputs")
	for i := range n.POs {
		fmt.Fprintf(bw, " %s", n.PONames[i])
	}
	fmt.Fprintln(bw)
	order, err := n.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		nd := n.Nodes[id]
		if nd.Kind != KindLogic {
			continue
		}
		fmt.Fprintf(bw, ".names")
		for _, f := range nd.Fanins {
			fmt.Fprintf(bw, " %s", n.Nodes[f].Name)
		}
		fmt.Fprintf(bw, " %s\n", nd.Name)
		for _, c := range nd.Cover.Cubes {
			for _, l := range c {
				switch l {
				case LitPos:
					bw.WriteByte('1')
				case LitNeg:
					bw.WriteByte('0')
				default:
					bw.WriteByte('-')
				}
			}
			if len(c) > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteString("1\n")
		}
	}
	// POs whose external name differs from the node name need an alias.
	for i, po := range n.POs {
		if n.PONames[i] != n.Nodes[po].Name {
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", n.Nodes[po].Name, n.PONames[i])
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

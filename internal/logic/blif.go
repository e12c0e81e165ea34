package logic

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// blifLits spells each Lit in a .names cube: LitDC, LitPos, LitNeg.
const blifLits = "-10"

// ParseBLIF reads a combinational BLIF model (.model/.inputs/.outputs/
// .names/.end). Latches and subcircuits are rejected: the Lily flow, like
// the paper, operates on combinational logic only.
func ParseBLIF(r io.Reader) (*Network, error) {
	// The output column of a cover's last cube sets the polarity of the
	// whole cover.
	var covers []SOP
	var onSet []bool
	m, err := ReadBLIF(r, BLIFDialect{Keyword: ".names",
		Declare: func(f []string) (string, []string, error) {
			if len(f) < 2 {
				return "", nil, fmt.Errorf("blif: .names with no signals")
			}
			covers, onSet = append(covers, NewSOP(len(f)-2)), append(onSet, true)
			return f[len(f)-1], f[1 : len(f)-1], nil
		},
		Body: func(f []string) error {
			if f[0] == "#@" {
				return nil // a .names model carries no placement
			}
			cover := &covers[len(covers)-1]
			in, out := "", f[len(f)-1]
			if len(f) == 2 {
				in = f[0]
			}
			if len(f) > 2 || len(f) == 1 && cover.NumInputs > 0 || len(in) != cover.NumInputs {
				return fmt.Errorf("blif: malformed cube %q for %d inputs", strings.Join(f, " "), cover.NumInputs)
			}
			c := make(Cube, len(in))
			for i := range in {
				lit := strings.IndexByte(blifLits, in[i])
				if lit < 0 {
					return fmt.Errorf("blif: bad literal %q in cube %q", in[i], in)
				}
				c[i] = Lit(lit)
			}
			if out != "1" && out != "0" {
				return fmt.Errorf("blif: bad output value %q", out)
			}
			onSet[len(onSet)-1] = out == "1"
			cover.AddCube(c)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	n := New("blif")
	if m.Name != "" {
		n.Name = m.Name
	}
	node := make([]NodeID, len(m.Inputs)+len(m.Decls))
	for i, name := range m.Inputs {
		node[i] = n.AddPI(name).ID
	}
	var fanins []NodeID
	for _, dc := range m.Order {
		out, cover := m.Decls[dc], covers[dc]
		if !onSet[dc] {
			// Off-set cover: the listed cubes describe when the output is 0.
			// Complementing enumerates the truth table, so bound the width —
			// otherwise a hostile model panics the parser (found by fuzzing).
			if cover.NumInputs > MaxEvalInputs {
				return nil, fmt.Errorf("blif: off-set cover for %q has %d inputs; complementing supports at most %d",
					out, cover.NumInputs, MaxEvalInputs)
			}
			cover = Complement(cover)
		}
		fanins = fanins[:0]
		for _, s := range m.Fanins(dc) {
			fanins = append(fanins, node[s])
		}
		node[len(m.Inputs)+int(dc)] = n.AddLogic(out, fanins, cover).ID
	}
	for i, out := range m.Outputs {
		n.MarkPO(node[m.OutputSignals[i]], out)
	}
	// No n.Check: AddLogic keeps fanins and fanouts in step and the build
	// order is topological; Check would re-derive both at a cost quadratic
	// in the largest fanout.
	return n, nil
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
				bw.WriteByte(blifLits[l])
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

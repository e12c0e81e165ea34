package logic

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"unicode"
)

// MaxBLIFLine caps the length of one BLIF line at 16 MiB. The reader's
// scanner starts with a small buffer and grows it only as far as the
// longest line needs.
const MaxBLIFLine = 1 << 24

// A BLIFDialect is what one BLIF flavour adds to the lines ReadBLIF
// handles itself. The fields slice passed to either function is reused
// for the next line, and ReadBLIF copies ins before the next call.
type BLIFDialect struct {
	Keyword string // the declaration directive: ".names" or ".gate"
	// Declare parses a Keyword line and returns the signal it drives and
	// its fanins in pin order.
	Declare func(fields []string) (out string, ins []string, err error)
	// Body parses a line between a declaration and the next directive,
	// or a "#@" line anywhere.
	Body func(fields []string) error
}

// BLIFModel is one model as ReadBLIF resolved it. Signal s < len(Inputs)
// is input s; any other is declaration s-len(Inputs), in file order.
type BLIFModel struct {
	Name            string
	Inputs, Outputs []string
	Decls           []string // the signal each declaration drives
	OutputSignals   []int32  // the signal that drives each output
	Order           []int32  // every declaration once, in build order

	pinOff []int32 // declaration d's fanins are pins[pinOff[d]:pinOff[d+1]]
	pins   []int32
}

// Fanins returns the fanin signals of declaration d in pin order.
func (m *BLIFModel) Fanins(d int32) []int32 { return m.pins[m.pinOff[d]:m.pinOff[d+1]] }

// ReadBLIF reads one combinational BLIF model. A "#" starts a comment
// except on "#@" lines, a trailing "\" joins the next line (so no field
// may end in one), and reading stops at .end. ReadBLIF handles .model (at most one), .inputs and
// .outputs itself, rejects latches, subcircuits and the other dialect's
// directive, hands the dialect's lines to d, and resolves forward
// references.
func ReadBLIF(r io.Reader, d BLIFDialect) (*BLIFModel, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxBLIFLine)
	m := &BLIFModel{pinOff: []int32{0}}
	sig := make(map[string]int32) // ^i for input i, d for declaration d
	define := func(name string, v int32) error {
		if _, dup := sig[name]; dup {
			return fmt.Errorf("blif: signal %q driven twice", name)
		}
		sig[name] = v
		return nil
	}
	var fields, pinNames []string
	var joined []byte
	open, sawModel := false, false
scan:
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if bytes.HasPrefix(line, []byte("#@")) {
			// An annotation when "#@" is a field of its own, else a comment.
			if fields = appendFields(fields[:0], string(line)); fields[0] == "#@" {
				if err := d.Body(fields); err != nil {
					return nil, err
				}
			}
			continue
		}
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = bytes.TrimSpace(line[:i])
		}
		if len(line) == 0 {
			continue
		}
		if line[len(line)-1] == '\\' {
			joined = append(append(joined, line[:len(line)-1]...), ' ')
			continue
		}
		text := string(line)
		if len(joined) > 0 {
			text = string(append(joined, line...))
			joined = joined[:0]
		}
		fields = appendFields(fields[:0], text)
		for _, f := range fields {
			if f[len(f)-1] == '\\' { // written last on a line, it would join the next
				return nil, fmt.Errorf("blif: %q ends in a backslash, which only a line may end in", f)
			}
		}
		switch kw := fields[0]; kw {
		case d.Keyword:
			out, ins, err := d.Declare(fields)
			if err == nil {
				err = define(out, int32(len(m.Decls)))
			}
			if err != nil {
				return nil, err
			}
			m.Decls = append(m.Decls, out)
			pinNames = append(pinNames, ins...)
			m.pinOff = append(m.pinOff, int32(len(pinNames)))
			open = true
			continue
		case ".model":
			if sawModel {
				return nil, fmt.Errorf("blif: duplicate .model directive (multi-model BLIF is not supported)")
			}
			sawModel = true
			if len(fields) > 1 {
				m.Name = fields[1]
			}
		case ".inputs":
			for _, name := range fields[1:] {
				if err := define(name, ^int32(len(m.Inputs))); err != nil {
					return nil, err
				}
				m.Inputs = append(m.Inputs, name)
			}
		case ".outputs":
			m.Outputs = append(m.Outputs, fields[1:]...)
		case ".end":
			break scan
		case ".names", ".gate", ".latch", ".subckt":
			return nil, fmt.Errorf("blif: unsupported construct %q in a combinational %s model", kw, d.Keyword)
		default:
			if kw[0] == '.' || !open {
				return nil, fmt.Errorf("blif: unknown directive %q", kw)
			}
			if err := d.Body(fields); err != nil {
				return nil, err
			}
			continue
		}
		open = false
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Resolve every fanin and output name; the outputs go after the pins.
	pinNames = append(pinNames, m.Outputs...)
	m.pins = make([]int32, len(pinNames))
	for i, name := range pinNames {
		v, ok := sig[name]
		if !ok {
			return nil, fmt.Errorf("blif: signal %q is used but never driven", name)
		}
		if v < 0 {
			m.pins[i] = ^v
		} else {
			m.pins[i] = int32(len(m.Inputs)) + v
		}
	}
	m.OutputSignals = m.pins[len(m.pins)-len(m.Outputs):]
	return m, m.order()
}

// order fills m.Order, in linear time, with the order of the fixed-point
// loop it replaces: that loop swept the declarations in file order,
// built each one whose fanins were all built, and repeated until none was
// left. Declaration d is built in sweep p(d) = max(1, max over declared
// fanins f of p(f) + [f comes after d in the file]), and within a sweep
// in file order, so a file in topological order keeps file order.
func (m *BLIFModel) order() error {
	nIn, n := int32(len(m.Inputs)), int32(len(m.Decls))
	pass := make([]int32, n) // 0 unvisited, -1 on the DFS stack, else p(d)
	type frame struct{ d, pin, p int32 }
	var stack []frame
	maxPass := int32(0)
	for root := int32(0); root < n; root++ {
		if pass[root] != 0 {
			continue
		}
		pass[root] = -1
		stack = append(stack, frame{root, m.pinOff[root], 1})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.pin == m.pinOff[top.d+1] {
				pass[top.d], maxPass = top.p, max(maxPass, top.p)
				stack = stack[:len(stack)-1]
				continue
			}
			switch f := m.pins[top.pin] - nIn; {
			case f < 0:
			case pass[f] == 0: // visit f, then come back to this pin
				pass[f] = -1
				stack = append(stack, frame{f, m.pinOff[f], 1})
				continue
			case pass[f] < 0:
				return fmt.Errorf("blif: unresolvable signal %q (combinational cycle)", m.Decls[f])
			case f > top.d:
				top.p = max(top.p, pass[f]+1)
			default:
				top.p = max(top.p, pass[f])
			}
			top.pin++
		}
	}
	// Counting sort by pass; filling in file order keeps it within one.
	start := make([]int32, maxPass+2)
	for _, p := range pass {
		start[p+1]++
	}
	for p := int32(1); p <= maxPass; p++ {
		start[p+1] += start[p]
	}
	m.Order = make([]int32, n)
	for d, p := range pass {
		m.Order[start[p]] = int32(d)
		start[p]++
	}
	return nil
}

// appendFields appends the fields of s, split as strings.Fields splits
// them, to dst; the reader reuses one slice for every line.
func appendFields(dst []string, s string) []string {
	start := -1
	for i, r := range s {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

package logic

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// FuzzParseBLIF exercises the BLIF reader with arbitrary input. The parser
// must never panic: any malformed model is rejected with an error. Models
// it accepts must survive a WriteBLIF/ParseBLIF round trip with the same
// interface and the same Boolean function on a sample of assignments.
func FuzzParseBLIF(f *testing.F) {
	f.Add(".model t\n.inputs a b\n.outputs x\n.names a b x\n11 1\n.end\n")
	f.Add(".model t\n.inputs a b\n.outputs x\n.names a b x\n00 0\n-1 0\n.end\n")
	f.Add(".model c\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n")
	f.Add(".model k\n.inputs a b c\n.outputs o\n.names a b t\n1- 1\n.names t c o\n11 1\n.end\n")
	f.Add(".model w\n.outputs k\n.names k\n.end\n")
	f.Add(".inputs a\n.outputs a\n.end")
	f.Add(".model x\n.inputs " + strings.Repeat("i ", 20) + "\n.outputs z\n.names z\n1\n.end\n")
	f.Add("# comment only\n")
	f.Add(".model m\n.inputs a\n.outputs x\n.names a x \\\n1 1\n.end\n")
	f.Add("#@0\n#@ place a 1 2\n.model m\n.inputs a\n.outputs a\n.end\n")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := ParseBLIF(strings.NewReader(src))
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		if cerr := n.Check(); cerr != nil {
			t.Fatalf("accepted network fails Check: %v", cerr)
		}
		// Round trip: writing and re-reading must preserve the interface.
		if n.NumLogic() > 500 {
			return // keep the fuzz iteration cheap
		}
		var buf bytes.Buffer
		if werr := WriteBLIF(&buf, n); werr != nil {
			t.Fatalf("WriteBLIF of accepted network: %v", werr)
		}
		m, rerr := ParseBLIF(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("round trip rejected:\n%s\nerr: %v", buf.String(), rerr)
		}
		if got, want := piNames(m), piNames(n); !equalStrings(got, want) {
			t.Fatalf("round trip PIs = %v, want %v", got, want)
		}
		if got, want := poNames(m), poNames(n); !equalStrings(got, want) {
			t.Fatalf("round trip POs = %v, want %v", got, want)
		}
		// Functional spot check on a few deterministic assignments.
		for pattern := 0; pattern < 4; pattern++ {
			in := map[string]bool{}
			for i, pi := range n.PIs {
				in[n.Nodes[pi].Name] = (i+pattern)%2 == 0 != (pattern >= 2)
			}
			want, err1 := n.Eval(in)
			got, err2 := m.Eval(in)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("eval error mismatch: %v vs %v", err1, err2)
			}
			if err1 != nil {
				continue
			}
			for name, w := range want {
				if got[name] != w {
					t.Fatalf("round trip changed function: output %q = %v, want %v (pattern %d)",
						name, got[name], w, pattern)
				}
			}
		}
	})
}

// FuzzSOP drives the cover algebra with arbitrary cube tables. Invariants:
// Eval agrees with TruthTable on every row, Clone is functionally equal,
// and double complement is the identity.
func FuzzSOP(f *testing.F) {
	f.Add([]byte{3, '1', '0', '-', '1', '1', '1'})
	f.Add([]byte{1, '0'})
	f.Add([]byte{0})
	f.Add([]byte{4, '1', '-', '-', '0', '0', '1', '1', '-'})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width := int(data[0] % 9) // 0..8 inputs keeps tables tiny
		s := NewSOP(width)
		body := data[1:]
		for len(body) >= width && len(s.Cubes) < 32 {
			c := make(Cube, width)
			ok := true
			for i := 0; i < width; i++ {
				switch body[i] {
				case '1':
					c[i] = LitPos
				case '0':
					c[i] = LitNeg
				case '-':
					c[i] = LitDC
				default:
					ok = false
				}
			}
			body = body[width:]
			if !ok {
				continue
			}
			s.AddCube(c)
			if width == 0 {
				break // a zero-width cube is the constant 1; one is enough
			}
		}

		tt := s.TruthTable()
		in := make([]bool, width)
		rows := 1 << width
		for r := 0; r < rows; r++ {
			for j := 0; j < width; j++ {
				in[j] = r&(1<<j) != 0
			}
			want := tt[r/64]&(1<<(r%64)) != 0
			if got := s.Eval(in); got != want {
				t.Fatalf("Eval(%v) = %v, truth table says %v", in, got, want)
			}
		}
		if !EqualFunc(s, s.Clone()) {
			t.Fatal("Clone changed the function")
		}
		if !EqualFunc(s, Complement(Complement(s))) {
			t.Fatalf("double complement changed the function of %v", s)
		}
		if s.IsConst0() && !Complement(s).IsConst1() && width > 0 {
			// Complement of constant 0 must evaluate to 1 everywhere.
			c := Complement(s)
			for j := range in {
				in[j] = false
			}
			if !c.Eval(in) {
				t.Fatal("complement of constant 0 is not constant 1")
			}
		}
	})
}

func piNames(n *Network) []string {
	out := make([]string, 0, len(n.PIs))
	for _, pi := range n.PIs {
		out = append(out, n.Nodes[pi].Name)
	}
	sort.Strings(out)
	return out
}

func poNames(n *Network) []string {
	out := append([]string(nil), n.PONames...)
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package netlist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lily/internal/library"
)

func TestMappedBLIFRoundTrip(t *testing.T) {
	nl := buildMux(t)
	lib := library.Big()
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, nl); err != nil {
		t.Fatal(err)
	}
	nl2, err := ParseBLIF(&buf, lib)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	// Functional equivalence.
	for r := 0; r < 8; r++ {
		in := map[string]bool{"sel": r&1 != 0, "a": r&2 != 0, "b": r&4 != 0}
		o1, err := nl.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		o2, err := nl2.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for k := range o1 {
			if o1[k] != o2[k] {
				t.Fatalf("round trip differs at %s", k)
			}
		}
	}
	// Placement survives.
	for _, c2 := range nl2.Cells {
		found := false
		for _, c := range nl.Cells {
			if c.Name == c2.Name {
				found = true
				if c.Pos != c2.Pos {
					t.Errorf("cell %s position lost: %v -> %v", c.Name, c.Pos, c2.Pos)
				}
			}
		}
		if !found && c2.Gate.Name != "buf" {
			t.Errorf("unexpected cell %s after round trip", c2.Name)
		}
	}
	for i := range nl2.PIPos {
		if nl2.PIPos[i] != nl.PIPos[nl.PIIndex(nl2.PINames[i])] {
			t.Errorf("PI pad %s lost", nl2.PINames[i])
		}
	}
}

func TestMappedBLIFErrors(t *testing.T) {
	lib := library.Big()
	cases := []struct {
		name    string
		src     string
		wantErr string // substring the error must contain
	}{
		{"unknown-gate", ".model m\n.inputs a\n.outputs y\n.gate frob a=a z=y\n.end", "unknown gate"},
		{"pin-count", ".model m\n.inputs a\n.outputs y\n.gate and2 a=a z=y\n.end", "wants 2"},
		{"bad-pin", ".model m\n.inputs a b\n.outputs y\n.gate and2 a=a q=b z=y\n.end", "pin"},
		{"no-output", ".model m\n.inputs a\n.outputs y\n.gate inv a=a\n.end", "without output"},
		{"short-gate", ".model m\n.inputs a\n.outputs y\n.gate inv\n.end", "malformed .gate"},
		{"bad-binding", ".model m\n.inputs a\n.outputs y\n.gate inv aa z=y\n.end", "malformed pin binding"},
		{"undriven", ".model m\n.inputs a\n.outputs y\n.end", "never driven"},
		{"redriven", ".model m\n.inputs a\n.outputs y\n.gate inv a=a z=y\n.gate inv a=a z=y\n.end", "driven twice"},
		{"dup-model", ".model m\n.inputs a\n.outputs y\n.model m2\n.gate inv a=a z=y\n.end", "duplicate .model"},
		{"names", ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end", "unsupported construct"},
		// A latch (sequential element) in a mapped combinational netlist is
		// rejected up front rather than leaving a dangling latch input.
		{"latch", ".model m\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end", "unsupported construct"},
		{"subckt", ".model m\n.inputs a\n.outputs y\n.subckt sub x=a y=y\n.end", "unsupported construct"},
		{"unknown-directive", ".model m\n.inputs a\n.outputs y\n.clock c\n.end", "unknown directive"},
		{"cycle", ".model m\n.inputs a\n.outputs y\n.gate and2 a=a b=y z=x\n.gate inv a=x z=y\n.end", "unresolvable"},
	}
	for _, tc := range cases {
		_, err := ParseBLIF(strings.NewReader(tc.src), lib)
		if err == nil {
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestMappedBLIFForwardReference(t *testing.T) {
	lib := library.Big()
	src := `
.model fwd
.inputs a
.outputs y
.gate inv a=mid z=y
.gate inv a=a z=mid
.end
`
	nl, err := ParseBLIF(strings.NewReader(src), lib)
	if err != nil {
		t.Fatal(err)
	}
	out, err := nl.Eval(map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	if out["y"] != true {
		t.Error("double inverter chain wrong")
	}
}

// TestMappedBLIFLongLines: a line far longer than the scanner's first
// buffer (a 2 MiB comment) still parses; one past the logic.MaxBLIFLine
// cap fails with bufio.ErrTooLong.
func TestMappedBLIFLongLines(t *testing.T) {
	lib := library.Big()
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, buildMux(t)); err != nil {
		t.Fatal(err)
	}
	long := "# " + strings.Repeat("x", 2<<20) + "\n"
	if _, err := ParseBLIF(strings.NewReader(long+buf.String()), lib); err != nil {
		t.Fatalf("2 MiB comment line: %v", err)
	}
	huge := "# " + strings.Repeat("x", 17<<20) + "\n"
	if _, err := ParseBLIF(strings.NewReader(huge+buf.String()), lib); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("17 MiB line: err = %v, want bufio.ErrTooLong", err)
	}
}

// TestMappedBLIFChainOutputsFirst: a 200,000-cell inverter chain declared
// from its output back to its input parses to the same netlist as the
// chain declared input first.
func TestMappedBLIFChainOutputsFirst(t *testing.T) {
	const n = 200_000
	lib := library.Big()
	decls := make([]string, n)
	for k := range decls {
		decls[k] = fmt.Sprintf(".gate inv a=x%d z=x%d\n#@ place x%d %d 0\n", k, k+1, k+1, k)
	}
	parse := func(decls []string) string {
		src := fmt.Sprintf(".model chain\n.inputs x0\n.outputs x%d\n%s.end\n", n, strings.Join(decls, ""))
		nl, err := ParseBLIF(strings.NewReader(src), lib)
		if err != nil {
			t.Fatal(err)
		}
		if nl.Cells[n-1].Name != fmt.Sprintf("x%d", n) {
			t.Fatalf("last cell is %s", nl.Cells[n-1].Name)
		}
		var b strings.Builder
		if err := WriteBLIF(&b, nl); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	inputsFirst := parse(decls)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		decls[i], decls[j] = decls[j], decls[i]
	}
	if parse(decls) != inputsFirst {
		t.Fatal("outputs-first chain parses differently from inputs-first")
	}
}

// TestMappedBLIFPinBoundTwice: a .gate line that binds one pin twice is
// rejected rather than keeping the last binding.
func TestMappedBLIFPinBoundTwice(t *testing.T) {
	lib := library.Big()
	for _, line := range []string{".gate and2 a=a a=b b=b z=y", ".gate inv a=a z=y z=x"} {
		src := ".model m\n.inputs a b\n.outputs y\n" + line + "\n.end\n"
		if _, err := ParseBLIF(strings.NewReader(src), lib); err == nil || !strings.Contains(err.Error(), "bound twice") {
			t.Errorf("%s: err = %v, want a pin bound twice", line, err)
		}
	}
}

package logic

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

const adderBLIF = `
# one-bit full adder
.model adder
.inputs a b cin
.outputs sum cout
.names a b axb
10 1
01 1
.names axb cin sum
10 1
01 1
.names a b ab
11 1
.names cin axb cx
11 1
.names ab cx cout
1- 1
-1 1
.end
`

func TestParseBLIFAdder(t *testing.T) {
	n, err := ParseBLIF(strings.NewReader(adderBLIF))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "adder" {
		t.Errorf("model name = %q", n.Name)
	}
	s := n.Stat()
	if s.PIs != 3 || s.POs != 2 || s.Logic != 5 {
		t.Fatalf("stat = %+v", s)
	}
	out, err := n.Eval(map[string]bool{"a": true, "b": true, "cin": false})
	if err != nil {
		t.Fatal(err)
	}
	if out["sum"] || !out["cout"] {
		t.Errorf("1+1+0: sum=%v cout=%v", out["sum"], out["cout"])
	}
}

func TestBLIFRoundTrip(t *testing.T) {
	n, err := ParseBLIF(strings.NewReader(adderBLIF))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, n); err != nil {
		t.Fatal(err)
	}
	n2, err := ParseBLIF(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	// Functional equivalence over all 8 input rows.
	for r := 0; r < 8; r++ {
		in := map[string]bool{"a": r&1 != 0, "b": r&2 != 0, "cin": r&4 != 0}
		o1, err1 := n.Eval(in)
		o2, err2 := n2.Eval(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for k := range o1 {
			if o1[k] != o2[k] {
				t.Fatalf("round trip differs on %s at row %d", k, r)
			}
		}
	}
}

func TestParseBLIFOffsetCover(t *testing.T) {
	src := `
.model offs
.inputs a b
.outputs y
.names a b y
11 0
.end
`
	n, err := ParseBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// y = NOT(a AND b)
	for r := 0; r < 4; r++ {
		a, b := r&1 != 0, r&2 != 0
		out, _ := n.Eval(map[string]bool{"a": a, "b": b})
		if out["y"] != !(a && b) {
			t.Errorf("offset cover: y(%v,%v)=%v", a, b, out["y"])
		}
	}
}

func TestParseBLIFConstants(t *testing.T) {
	src := `
.model consts
.inputs a
.outputs one zero
.names one
1
.names zero
.end
`
	n, err := ParseBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := n.Eval(map[string]bool{"a": false})
	if !out["one"] || out["zero"] {
		t.Errorf("constants wrong: %v", out)
	}
}

func TestParseBLIFForwardReference(t *testing.T) {
	src := `
.model fwd
.inputs a
.outputs y
.names mid y
1 1
.names a mid
0 1
.end
`
	n, err := ParseBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := n.Eval(map[string]bool{"a": false})
	if !out["y"] {
		t.Error("forward reference network wrong")
	}
}

func TestParseBLIFContinuation(t *testing.T) {
	src := ".model cont\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n"
	n, err := ParseBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.PIs) != 2 {
		t.Errorf("continuation line lost an input: %d PIs", len(n.PIs))
	}
}

func TestParseBLIFErrors(t *testing.T) {
	cases := map[string]string{
		"latch":     ".model m\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end",
		"undefined": ".model m\n.inputs a\n.outputs y\n.names a nothere y\n11 1\n.end",
		"dup":       ".model m\n.inputs a a\n.outputs y\n.names a y\n1 1\n.end",
		"badcube":   ".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end",
		"width":     ".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end",
		"noout":     ".model m\n.inputs a\n.outputs y\n.end",
		"cycle":     ".model m\n.inputs a\n.outputs y\n.names y2 y\n1 1\n.names y y2\n1 1\n.end",
	}
	for name, src := range cases {
		if _, err := ParseBLIF(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestParseBLIFLongLines: a line far longer than the scanner's first
// buffer (a 2 MiB comment) still parses; one past the MaxBLIFLine cap
// fails with bufio.ErrTooLong.
func TestParseBLIFLongLines(t *testing.T) {
	long := "# " + strings.Repeat("x", 2<<20) + "\n"
	if _, err := ParseBLIF(strings.NewReader(long + adderBLIF)); err != nil {
		t.Fatalf("2 MiB comment line: %v", err)
	}
	huge := "# " + strings.Repeat("x", 17<<20) + "\n"
	if _, err := ParseBLIF(strings.NewReader(huge + adderBLIF)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("17 MiB line: err = %v, want bufio.ErrTooLong", err)
	}
}

// TestParseBLIFChainOutputsFirst: a 200,000-node inverter chain declared
// from its output back to its input parses to the same network as the
// chain declared input first. The fixed-point loop the reader replaced
// needed one sweep over the file per node here.
func TestParseBLIFChainOutputsFirst(t *testing.T) {
	const n = 200_000
	decls := make([]string, n)
	for k := range decls {
		decls[k] = fmt.Sprintf(".names x%d x%d\n0 1\n", k, k+1)
	}
	parse := func(decls []string) string {
		src := fmt.Sprintf(".model chain\n.inputs x0\n.outputs x%d\n%s.end\n", n, strings.Join(decls, ""))
		net, err := ParseBLIF(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		if net.Nodes[n].Name != fmt.Sprintf("x%d", n) {
			t.Fatalf("last node is %s", net.Nodes[n].Name)
		}
		var b strings.Builder
		if err := WriteBLIF(&b, net); err != nil {
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

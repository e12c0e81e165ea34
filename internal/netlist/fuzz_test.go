package netlist_test

import (
	"bytes"
	"strings"
	"testing"

	"lily/internal/library"
	"lily/internal/netlist"
)

// FuzzParseMappedBLIF exercises the mapped-BLIF reader with arbitrary
// input. The parser must never panic, and any netlist it accepts must
// survive WriteBLIF -> ParseBLIF -> WriteBLIF byte for byte.
func FuzzParseMappedBLIF(f *testing.F) {
	f.Add(mappedBLIF(f, "C432"))
	// Forward references, "#@" positions, continuation lines and comments
	// at the end of a line.
	f.Add(".model m\n.inputs a b\n.outputs y\n#@ pad a 0 1.5\n" +
		".gate nand2 a=a b=mid z=y # drives the output\n#@ place y 2.5 3\n" +
		".gate inv a=b \\\n  z=mid\n#@ place mid -1 0.25\n#@ pad y 9 9\n.end\n")
	f.Add(".model m\n.inputs a\n.outputs y\n.gate inv a=x z=y\n.gate inv a=a z=x\n#@ place x 1 1\n.end\n")
	f.Add(".model m\n.inputs a b\n.outputs a y\n.gate and2 b=b a=a z=y\n.end\ntext after .end\n")
	f.Add("# comment\n.model m\n.inputs a\n.outputs y\n.gate buf a=a z=y\n#@ place y 1e3 NaN\n.end\n")
	lib := library.Big()
	f.Fuzz(func(t *testing.T, src string) {
		nl, err := netlist.ParseBLIF(strings.NewReader(src), lib)
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		var first bytes.Buffer
		if err := netlist.WriteBLIF(&first, nl); err != nil {
			t.Fatalf("WriteBLIF of accepted netlist: %v", err)
		}
		back, err := netlist.ParseBLIF(bytes.NewReader(first.Bytes()), lib)
		if err != nil {
			t.Fatalf("round trip rejected:\n%s\nerr: %v", first.String(), err)
		}
		var second bytes.Buffer
		if err := netlist.WriteBLIF(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the BLIF:\n%s\nbecame\n%s", first.String(), second.String())
		}
	})
}

package netlist_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lily/internal/bench"
	"lily/internal/decomp"
	"lily/internal/geom"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/mis"
	"lily/internal/netlist"
)

// refParseBLIF is the .gate reader as it was before the shared reader: it
// builds cells with the quadratic fixed-point loop whose order
// logic.ReadBLIF reproduces in linear time. It serves as the reference of
// TestMappedBLIFMatchesReference and lives only here.
func refParseBLIF(r io.Reader, lib *library.Library) (*netlist.Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, logic.MaxBLIFLine)
	nl := &netlist.Netlist{}
	type gateLine struct {
		gate *library.Gate
		pins map[string]string // pin -> signal
		out  string
	}
	var gates []gateLine
	var outputs []string
	place := make(map[string]geom.Point)
	pads := make(map[string]geom.Point)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0:
		case f[0] == "#@":
			var x, y float64
			if _, err := fmt.Sscanf(f[3]+" "+f[4], "%f %f", &x, &y); err != nil {
				return nil, err
			}
			if f[1] == "place" {
				place[f[2]] = geom.Point{X: x, Y: y}
			} else {
				pads[f[2]] = geom.Point{X: x, Y: y}
			}
		case f[0] == ".model":
			nl.Name = f[1]
		case f[0] == ".inputs":
			nl.PINames = append(nl.PINames, f[1:]...)
		case f[0] == ".outputs":
			outputs = append(outputs, f[1:]...)
		case f[0] == ".gate":
			gl := gateLine{gate: lib.GateByName(f[1]), pins: make(map[string]string)}
			for _, kv := range f[2:] {
				pin, sig, _ := strings.Cut(kv, "=")
				if pin == "z" {
					gl.out = sig
				} else {
					gl.pins[pin] = sig
				}
			}
			gates = append(gates, gl)
		case f[0] == ".end":
		default:
			return nil, fmt.Errorf("reference: unexpected %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	nl.PIPos = make([]geom.Point, len(nl.PINames))
	refOf := make(map[string]netlist.Ref)
	for i, n := range nl.PINames {
		nl.PIPos[i] = pads[n]
		refOf[n] = netlist.Ref{IsPI: true, Index: i}
	}
	for pending := gates; len(pending) > 0; {
		var next []gateLine
		for _, gl := range pending {
			ready := true
			//lint:sorted all-pins-resolved predicate; result independent of visit order
			for _, sig := range gl.pins {
				if _, ok := refOf[sig]; !ok {
					ready = false
				}
			}
			if !ready {
				next = append(next, gl)
				continue
			}
			pinNames := make([]string, 0, len(gl.pins))
			for p := range gl.pins {
				pinNames = append(pinNames, p)
			}
			sort.Strings(pinNames)
			inputs := make([]netlist.Ref, len(pinNames))
			for i, p := range pinNames {
				inputs[i] = refOf[gl.pins[p]]
			}
			ci := nl.AddCell(&netlist.Cell{Name: gl.out, Gate: gl.gate, Inputs: inputs, Pos: place[gl.out]})
			refOf[gl.out] = netlist.Ref{Index: ci}
		}
		if len(next) == len(pending) {
			return nil, fmt.Errorf("reference: unresolvable signals")
		}
		pending = next
	}
	for _, out := range outputs {
		nl.POs = append(nl.POs, netlist.PO{Name: out, Driver: refOf[out], Pad: pads[out]})
	}
	return nl, nl.Check()
}

// mappedBLIF maps the named benchmark with the MIS mapper, gives every
// cell and pad a distinct position, and returns the netlist's BLIF.
func mappedBLIF(t testing.TB, name string) string {
	t.Helper()
	p, ok := bench.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	res, err := decomp.Premap(bench.Generate(p))
	if err != nil {
		t.Fatal(err)
	}
	nl, err := mis.Map(res.Inchoate, library.Big(), mis.DefaultOptions(mis.ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range nl.Cells {
		c.Pos = geom.Point{X: float64(i) * 1.5, Y: float64(i % 7)}
	}
	for i := range nl.PIPos {
		nl.PIPos[i] = geom.Point{X: 0, Y: float64(i)}
	}
	for i := range nl.POs {
		nl.POs[i].Pad = geom.Point{X: 500, Y: float64(i)}
	}
	return writeBLIF(t, nl)
}

func writeBLIF(t testing.TB, nl *netlist.Netlist) string {
	t.Helper()
	var b bytes.Buffer
	if err := netlist.WriteBLIF(&b, nl); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// shuffleGates returns src with its .gate blocks (a .gate line and the
// "#@" lines after it) permuted by perm; the lines before the first
// .gate and the final .end stay in place.
func shuffleGates(src string, perm []int) string {
	var head strings.Builder
	var blocks []string
	for _, l := range strings.SplitAfter(strings.TrimSuffix(src, ".end\n"), "\n") {
		switch {
		case strings.HasPrefix(l, ".gate "):
			blocks = append(blocks, l)
		case len(blocks) == 0:
			head.WriteString(l)
		default:
			blocks[len(blocks)-1] += l
		}
	}
	if perm == nil {
		perm = make([]int, len(blocks))
		for i := range perm {
			perm[i] = len(blocks) - 1 - i
		}
	}
	for _, k := range perm {
		head.WriteString(blocks[k])
	}
	head.WriteString(".end\n")
	return head.String()
}

// TestMappedBLIFMatchesReference: with the .gate lines of mapped C432,
// C880 and C5315 in file order, reversed, or shuffled, ParseBLIF builds
// the cells in the order of the fixed-point reference and writes the same
// bytes.
func TestMappedBLIFMatchesReference(t *testing.T) {
	lib := library.Big()
	for _, name := range []string{"C432", "C880", "C5315"} {
		src := mappedBLIF(t, name)
		n := strings.Count(src, "\n.gate ")
		// File order, reversed (nil) and three seeded shuffles.
		for order, perm := range [][]int{
			permRange(n), nil,
			rand.New(rand.NewSource(1)).Perm(n),
			rand.New(rand.NewSource(2)).Perm(n),
			rand.New(rand.NewSource(3)).Perm(n),
		} {
			in := shuffleGates(src, perm)
			got, err := netlist.ParseBLIF(strings.NewReader(in), lib)
			if err != nil {
				t.Fatalf("%s/order%d: %v", name, order, err)
			}
			want, err := refParseBLIF(strings.NewReader(in), lib)
			if err != nil {
				t.Fatalf("%s/order%d: reference: %v", name, order, err)
			}
			if cellNames(got) != cellNames(want) {
				t.Fatalf("%s/order%d: cell order differs from the reference", name, order)
			}
			if writeBLIF(t, got) != writeBLIF(t, want) {
				t.Fatalf("%s/order%d: WriteBLIF differs from the reference", name, order)
			}
			if order == 0 && writeBLIF(t, got) != writeBLIF(t, mustParse(t, writeBLIF(t, got), lib)) {
				t.Fatalf("%s: WriteBLIF of the parse is not a fixed point", name)
			}
		}
	}
}

func permRange(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func mustParse(t testing.TB, src string, lib *library.Library) *netlist.Netlist {
	t.Helper()
	nl, err := netlist.ParseBLIF(strings.NewReader(src), lib)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func cellNames(nl *netlist.Netlist) string {
	var b strings.Builder
	for _, c := range nl.Cells {
		b.WriteString(c.Name)
		b.WriteByte(' ')
	}
	return b.String()
}

// BenchmarkParseBLIF times the .gate reader on mapped C5315; run with
// -benchmem for allocs/op.
func BenchmarkParseBLIF(b *testing.B) {
	src, lib := mappedBLIF(b, "C5315"), library.Big()
	b.Run("mapped-C5315", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if _, err := netlist.ParseBLIF(strings.NewReader(src), lib); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package logic_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"lily/internal/bench"
	"lily/internal/logic"
)

// refParseBLIF is the .names reader as it was before the shared reader:
// it builds nodes with the quadratic fixed-point loop whose order
// logic.ReadBLIF reproduces in linear time. It serves as the reference of
// TestParseBLIFMatchesReference and lives only here.
func refParseBLIF(r io.Reader) (*logic.Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, logic.MaxBLIFLine)
	var lines []string
	var cont strings.Builder
	for sc.Scan() {
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
	n := logic.New("blif")
	var outputs []string
	type namesDecl struct{ signals, cubes []string }
	var decls []namesDecl
	for i := 0; i < len(lines); {
		fields := strings.Fields(lines[i])
		i++
		switch fields[0] {
		case ".model":
			n.Name = fields[1]
		case ".inputs":
			for _, name := range fields[1:] {
				n.AddPI(name)
			}
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
		case ".names":
			d := namesDecl{signals: fields[1:]}
			for i < len(lines) && !strings.HasPrefix(lines[i], ".") {
				d.cubes = append(d.cubes, lines[i])
				i++
			}
			decls = append(decls, d)
		case ".end":
			i = len(lines)
		default:
			return nil, fmt.Errorf("reference: unexpected %q", fields[0])
		}
	}
	for pending := decls; len(pending) > 0; {
		var next []namesDecl
		for _, d := range pending {
			ins := d.signals[:len(d.signals)-1]
			fanins := make([]logic.NodeID, len(ins))
			ready := true
			for k, s := range ins {
				nd := n.NodeByName(s)
				if nd == nil {
					ready = false
					break
				}
				fanins[k] = nd.ID
			}
			if !ready {
				next = append(next, d)
				continue
			}
			cover, err := refCover(len(ins), d.cubes)
			if err != nil {
				return nil, err
			}
			n.AddLogic(d.signals[len(d.signals)-1], fanins, cover)
		}
		if len(next) == len(pending) {
			return nil, fmt.Errorf("reference: unresolvable declarations")
		}
		pending = next
	}
	for _, out := range outputs {
		n.MarkPO(n.NodeByName(out).ID, out)
	}
	return n, n.Check()
}

// refCover parses the cube lines of one .names declaration.
func refCover(width int, cubeLines []string) (logic.SOP, error) {
	cover := logic.NewSOP(width)
	onSet := true
	for _, cl := range cubeLines {
		f := strings.Fields(cl)
		in, out := "", f[len(f)-1]
		if len(f) == 2 {
			in = f[0]
		}
		if len(in) != width {
			return cover, fmt.Errorf("reference: bad cube %q", cl)
		}
		c := make(logic.Cube, width)
		for k, ch := range in {
			c[k] = []logic.Lit{logic.LitPos, logic.LitNeg, logic.LitDC}[strings.IndexRune("10-", ch)]
		}
		onSet = out == "1"
		cover.AddCube(c)
	}
	if !onSet {
		cover = logic.Complement(cover)
	}
	return cover, nil
}

// shuffleBLIF returns src with its declaration blocks (a keyword line and
// the lines that follow it up to the next one) permuted by perm; the lines
// before the first declaration and the final .end stay in place.
func shuffleBLIF(src, keyword string, perm func(n int) []int) string {
	var head strings.Builder
	var blocks []string
	for _, l := range strings.SplitAfter(strings.TrimSuffix(src, ".end\n"), "\n") {
		switch {
		case strings.HasPrefix(l, keyword+" "):
			blocks = append(blocks, l)
		case len(blocks) == 0:
			head.WriteString(l)
		default:
			blocks[len(blocks)-1] += l
		}
	}
	for _, k := range perm(len(blocks)) {
		head.WriteString(blocks[k])
	}
	head.WriteString(".end\n")
	return head.String()
}

// declOrders are the permutations the order tests apply to the
// declarations: file order, reversed, and three seeded shuffles.
var declOrders = []struct {
	name string
	perm func(n int) []int
}{
	{"file", func(n int) []int { return permBy(n, func(i int) int { return i }) }},
	{"reversed", func(n int) []int { return permBy(n, func(i int) int { return n - 1 - i }) }},
	{"shuffle1", func(n int) []int { return rand.New(rand.NewSource(1)).Perm(n) }},
	{"shuffle2", func(n int) []int { return rand.New(rand.NewSource(2)).Perm(n) }},
	{"shuffle3", func(n int) []int { return rand.New(rand.NewSource(3)).Perm(n) }},
}

func permBy(n int, f func(int) int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = f(i)
	}
	return p
}

// TestParseBLIFMatchesReference: with the declarations of C432, C880 and
// C5315 in file order, reversed, or shuffled, ParseBLIF builds the nodes
// in the order of the fixed-point reference and writes the same bytes.
func TestParseBLIFMatchesReference(t *testing.T) {
	for _, name := range []string{"C432", "C880", "C5315"} {
		p, ok := bench.ProfileByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		var buf bytes.Buffer
		if err := logic.WriteBLIF(&buf, bench.Generate(p)); err != nil {
			t.Fatal(err)
		}
		for _, order := range declOrders {
			src := shuffleBLIF(buf.String(), ".names", order.perm)
			got, err := logic.ParseBLIF(strings.NewReader(src))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, order.name, err)
			}
			want, err := refParseBLIF(strings.NewReader(src))
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", name, order.name, err)
			}
			if nodeNames(got) != nodeNames(want) {
				t.Fatalf("%s/%s: node order differs from the reference", name, order.name)
			}
			if blifOf(t, got) != blifOf(t, want) {
				t.Fatalf("%s/%s: WriteBLIF differs from the reference", name, order.name)
			}
		}
	}
}

func nodeNames(n *logic.Network) string {
	var b strings.Builder
	for _, nd := range n.Nodes {
		b.WriteString(nd.Name)
		b.WriteByte(' ')
	}
	return b.String()
}

func blifOf(t *testing.T, n *logic.Network) string {
	t.Helper()
	var b strings.Builder
	if err := logic.WriteBLIF(&b, n); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// BenchmarkParseBLIF times the .names reader on the BLIF of C5315 and of
// the 50k-gate scale profile; run with -benchmem for allocs/op.
func BenchmarkParseBLIF(b *testing.B) {
	for _, name := range []string{"C5315", "gen50k"} {
		p, ok := bench.ProfileByName(name)
		if !ok {
			b.Fatalf("no profile %s", name)
		}
		var buf bytes.Buffer
		if err := logic.WriteBLIF(&buf, bench.Generate(p)); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(buf.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := logic.ParseBLIF(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

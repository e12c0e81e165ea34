package layout

import (
	"math"
	"math/rand"
	"testing"

	"lily/internal/bench"
	"lily/internal/core"
	"lily/internal/decomp"
	"lily/internal/geom"
	"lily/internal/library"
	"lily/internal/mis"
	"lily/internal/netlist"
	"lily/internal/place"
)

func misNetlist(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	p, ok := bench.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	src := bench.Generate(p)
	res, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := mis.Map(res.Inchoate, library.Big(), mis.DefaultOptions(mis.ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestLayoutMISPipeline(t *testing.T) {
	lib := library.Big()
	nl := misNetlist(t, "C432")
	res, err := Place(nl, lib, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows < 2 {
		t.Errorf("only %d rows", res.Rows)
	}
	if res.ChipArea() <= res.ActiveArea {
		t.Errorf("chip area %.0f not above active area %.0f (routing needs space)",
			res.ChipArea(), res.ActiveArea)
	}
	if res.TotalWirelength <= 0 {
		t.Error("no wirelength")
	}
	if len(res.ChannelDensities) != res.Rows+1 {
		t.Errorf("%d channel densities for %d rows", len(res.ChannelDensities), res.Rows)
	}
}

func TestLayoutRowsLegal(t *testing.T) {
	lib := library.Big()
	nl := misNetlist(t, "C880")
	res, err := Place(nl, lib, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Group cells by y; within each row, cells must not overlap.
	byY := map[float64][]*netlist.Cell{}
	for _, c := range nl.Cells {
		byY[c.Pos.Y] = append(byY[c.Pos.Y], c)
	}
	if len(byY) != res.Rows {
		t.Errorf("%d distinct y values for %d rows", len(byY), res.Rows)
	}
	for y, cells := range byY {
		type iv struct{ lo, hi float64 }
		ivs := make([]iv, len(cells))
		for i, c := range cells {
			ivs[i] = iv{c.Pos.X - c.Gate.Width/2, c.Pos.X + c.Gate.Width/2}
		}
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].lo < ivs[j].hi-1e-6 && ivs[j].lo < ivs[i].hi-1e-6 {
					t.Fatalf("row y=%v: cells overlap (%v, %v)", y, ivs[i], ivs[j])
				}
			}
		}
	}
	// All cells within the chip.
	for _, c := range nl.Cells {
		if c.Pos.X < 0 || c.Pos.X > res.ChipWidth || c.Pos.Y < 0 || c.Pos.Y > res.ChipHeight {
			t.Fatalf("cell %s at %v outside chip %vx%v", c.Name, c.Pos, res.ChipWidth, res.ChipHeight)
		}
	}
}

func TestLayoutLilySeedUsed(t *testing.T) {
	// Lily netlists carry seed positions; the backend must keep them (no
	// global re-placement) and still produce a legal layout.
	p, _ := bench.ProfileByName("C432")
	src := bench.Generate(p)
	dres, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := core.Map(dres.Inchoate, library.Big(), core.DefaultOptions(core.ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	if !HasSeedPositions(lres.Netlist) {
		t.Fatal("lily netlist lacks seed positions")
	}
	res, err := Place(lres.Netlist, library.Big(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWirelength <= 0 || res.ChipArea() <= 0 {
		t.Error("degenerate layout")
	}
}

func TestSwapPassesImprove(t *testing.T) {
	lib := library.Big()
	// Greedy sweeps from the same global placement: the half-perimeter
	// wirelength they minimize may only shrink with more passes.
	hpwl := func(passes int) float64 {
		nl := misNetlist(t, "C880")
		if err := GlobalPlace(nl, lib, place.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		rows := buildRows(nl, lib)
		improveRows(nl, rows, lib, passes)
		ix := newNetIndex(nl)
		all := make([]int, len(ix.nets))
		for i := range all {
			all[i] = i
		}
		return ix.totalHP(all)
	}
	h0, h6 := hpwl(0), hpwl(6)
	if h6 > h0*1.001 {
		t.Errorf("swaps made wirelength worse: %.0f -> %.0f", h0, h6)
	}
}

func TestChannelDensityNonNegative(t *testing.T) {
	lib := library.Big()
	nl := misNetlist(t, "misex1")
	res, err := Place(nl, lib, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, d := range res.ChannelDensities {
		if d < 0 {
			t.Fatalf("negative density %d", d)
		}
		sum += d
	}
	if sum == 0 {
		t.Error("all channels empty; routing model broken")
	}
}

func TestPadsOnChipBoundary(t *testing.T) {
	lib := library.Big()
	nl := misNetlist(t, "misex1")
	res, err := Place(nl, lib, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	onEdge := func(p geom.Point) bool {
		const eps = 1e-6
		return math.Abs(p.X) < eps || math.Abs(p.X-res.ChipWidth) < eps ||
			math.Abs(p.Y) < eps || math.Abs(p.Y-res.ChipHeight) < eps
	}
	for i, p := range nl.PIPos {
		if !onEdge(p) {
			t.Errorf("PI %s pad %v off boundary", nl.PINames[i], p)
		}
	}
	for _, po := range nl.POs {
		if !onEdge(po.Pad) {
			t.Errorf("PO %s pad %v off boundary", po.Name, po.Pad)
		}
	}
}

func TestSnapToBoundary(t *testing.T) {
	cases := []struct {
		in, want geom.Point
	}{
		{geom.Point{X: 1, Y: 5}, geom.Point{X: 0, Y: 5}},
		{geom.Point{X: 9, Y: 5}, geom.Point{X: 10, Y: 5}},
		{geom.Point{X: 5, Y: 1}, geom.Point{X: 5, Y: 0}},
		{geom.Point{X: 5, Y: 9}, geom.Point{X: 5, Y: 10}},
	}
	for _, tc := range cases {
		if got := snapToBoundary(tc.in, 10, 10); got != tc.want {
			t.Errorf("snap(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestLayoutPreservesFunction(t *testing.T) {
	// The backend moves cells around but must not alter connectivity.
	p, _ := bench.ProfileByName("misex1")
	src := bench.Generate(p)
	dres, err := decomp.Premap(src)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := mis.Map(dres.Inchoate, library.Big(), mis.DefaultOptions(mis.ModeArea))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Place(nl, library.Big(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 16; k++ {
		in := make(map[string]bool)
		for _, pi := range src.PIs {
			in[src.Nodes[pi].Name] = rng.Intn(2) == 1
		}
		want, _ := src.Eval(in)
		got, err := nl.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for name := range want {
			if want[name] != got[name] {
				t.Fatalf("layout changed function at %s", name)
			}
		}
	}
}

func TestEmptyNetlistRejected(t *testing.T) {
	nl := &netlist.Netlist{Name: "empty"}
	if _, err := Place(nl, library.Big(), DefaultOptions()); err == nil {
		t.Error("empty netlist accepted")
	}
}

func TestAnnealProducesLegalLayout(t *testing.T) {
	lib := library.Big()
	nl := misNetlist(t, "C432")
	opt := DefaultOptions()
	opt.Anneal = true
	res, err := Place(nl, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Legality: no overlaps within any row.
	byY := map[float64][]*netlist.Cell{}
	for _, c := range nl.Cells {
		byY[c.Pos.Y] = append(byY[c.Pos.Y], c)
	}
	for y, cells := range byY {
		for i := range cells {
			for j := i + 1; j < len(cells); j++ {
				li, hi := cells[i].Pos.X-cells[i].Gate.Width/2, cells[i].Pos.X+cells[i].Gate.Width/2
				lj, hj := cells[j].Pos.X-cells[j].Gate.Width/2, cells[j].Pos.X+cells[j].Gate.Width/2
				if li < hj-1e-6 && lj < hi-1e-6 {
					t.Fatalf("row %v: overlap after anneal", y)
				}
			}
		}
	}
	if res.TotalWirelength <= 0 {
		t.Error("degenerate annealed layout")
	}
}

func TestAnnealNotWorseThanGreedy(t *testing.T) {
	lib := library.Big()
	nlG := misNetlist(t, "C880")
	nlA := misNetlist(t, "C880")
	g, err := Place(nlG, lib, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	optA := DefaultOptions()
	optA.Anneal = true
	a, err := Place(nlA, lib, optA)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalWirelength > g.TotalWirelength*1.05 {
		t.Errorf("anneal clearly worse: %.0f vs greedy %.0f",
			a.TotalWirelength, g.TotalWirelength)
	}
	t.Logf("greedy %.0f µm, anneal %.0f µm", g.TotalWirelength, a.TotalWirelength)
}

func TestAnnealDeterministic(t *testing.T) {
	lib := library.Big()
	nl1 := misNetlist(t, "misex1")
	nl2 := misNetlist(t, "misex1")
	opt := DefaultOptions()
	opt.Anneal = true
	r1, err := Place(nl1, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Place(nl2, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalWirelength != r2.TotalWirelength {
		t.Errorf("anneal not deterministic: %.2f vs %.2f", r1.TotalWirelength, r2.TotalWirelength)
	}
}

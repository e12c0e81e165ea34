package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"lily/internal/bench"
	"lily/internal/cut"
	"lily/internal/geom"
	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/match"
	"lily/internal/place"
	"lily/internal/wire"
)

// fixture builds a hand-placed subject graph:
//
//	a(0,0)  b(10,0) -> x = NAND(a,b) -> PO "x" pad (20,5)
//	              \--> y = INV(b)    -> PO "y" pad (20,10)
func fixture(t *testing.T) (*logic.Network, *lily) {
	t.Helper()
	sub := logic.New("fix")
	a := sub.AddPI("a")
	b := sub.AddPI("b")
	x := sub.AddLogic("x", []logic.NodeID{a.ID, b.ID}, logic.NandSOP(2))
	y := sub.AddLogic("y", []logic.NodeID{b.ID}, logic.NotSOP())
	sub.MarkPO(x.ID, "x")
	sub.MarkPO(y.ID, "y")

	pl := &place.Result{
		Pos: map[logic.NodeID]geom.Point{
			a.ID: {X: 0, Y: 0},
			b.ID: {X: 10, Y: 0},
			x.ID: {X: 5, Y: 5},
			y.ID: {X: 12, Y: 8},
		},
		POPads: map[string]geom.Point{
			"x": {X: 20, Y: 5},
			"y": {X: 20, Y: 10},
		},
		Die: geom.Enclosing([]geom.Point{{X: 0, Y: 0}, {X: 20, Y: 10}}),
	}
	lm := newLily(context.Background(), sub, library.Big(), pl, DefaultOptions(ModeArea), nil)
	return sub, lm
}

func nand2MatchAt(t *testing.T, lm *lily, v logic.NodeID) *match.Match {
	t.Helper()
	ms := lm.matchesAt(v)
	for i := range ms {
		if ms[i].Gate.Name == "nand2" {
			return &ms[i]
		}
	}
	t.Fatal("no nand2 match")
	return nil
}

// Fig 3.1: the fanin rectangle of input a for the match at x encloses a's
// driver and its surviving true fanouts; the fanout rectangle holds the PO
// pad x drives.
func TestFaninRectanglesConstruction(t *testing.T) {
	sub, lm := fixture(t)
	// Explicit per-pin lists are only materialized for the exact wire
	// models; the default Steiner estimator derives pin counts from the
	// flat fanout offsets instead (see geometry).
	lm.opt.WireModel = wire.ModelSpanningTree
	x := sub.NodeByName("x").ID
	lm.state[x] = StateNestling
	m := nand2MatchAt(t, lm, x)
	lm.fanoutGeometry(x)
	g := lm.geometry(x, m)

	if len(g.distinctIn) != 2 {
		t.Fatalf("distinct inputs = %v", g.distinctIn)
	}
	aID := sub.NodeByName("a").ID
	bID := sub.NodeByName("b").ID
	// a fans out only to x, which the match covers: its fanin point set is
	// just a's own position.
	ai := g.inputIndex(aID)
	if ai < 0 {
		t.Fatalf("a not a distinct input: %v", g.distinctIn)
	}
	if pts := g.pts(ai); len(pts) != 1 || pts[0] != (geom.Point{X: 0, Y: 0}) {
		t.Errorf("fanin pts of a = %v", pts)
	}
	// b also feeds y (an egg outside the match): its set includes y's
	// placePosition.
	bi := g.inputIndex(bID)
	if bi < 0 {
		t.Fatalf("b not a distinct input: %v", g.distinctIn)
	}
	pts := g.pts(bi)
	if len(pts) != 2 {
		t.Fatalf("fanin pts of b = %v", pts)
	}
	hasY := false
	for _, p := range pts {
		if p == (geom.Point{X: 12, Y: 8}) {
			hasY = true
		}
	}
	if !hasY {
		t.Errorf("b's rectangle misses true fanout y: %v", pts)
	}
	// The cached fanin rectangle matches the enclosing of the pin set.
	for i := range g.distinctIn {
		if got, want := g.faninRect[i], geom.Enclosing(g.pts(i)); got != want {
			t.Errorf("faninRect[%d] = %v, want %v", i, got, want)
		}
	}
	// Fanout rectangle: x drives only the PO pad.
	if len(g.fanoutPts) != 1 || g.fanoutPts[0] != (geom.Point{X: 20, Y: 5}) {
		t.Errorf("fanout pts = %v", g.fanoutPts)
	}
}

// §3.4: the wire increment divides the estimated net length by the sink
// count, and includes the candidate gate position.
func TestWireIncrementAccounting(t *testing.T) {
	sub, lm := fixture(t)
	x := sub.NodeByName("x").ID
	lm.state[x] = StateNestling
	m := nand2MatchAt(t, lm, x)
	lm.fanoutGeometry(x)
	// Build the geometry under an exact model so the explicit pin lists
	// exist for the cross-check, then evaluate the increment with the
	// default Steiner estimator; every other geometry field is
	// model-independent.
	lm.opt.WireModel = wire.ModelSpanningTree
	g := lm.geometry(x, m)
	lm.opt.WireModel = wire.ModelHPWLSteiner
	ai := g.inputIndex(sub.NodeByName("a").ID)
	inc := lm.wireIncrement(g, ai)
	// Net: a(0,0) + gate position; single sink -> full net length.
	pts := append(append([]geom.Point(nil), g.pts(ai)...), g.gatePos)
	want := new(wire.Scratch).NetLength(lm.opt.WireModel, pts)
	if math.Abs(inc-want) > 1e-9 {
		t.Errorf("increment = %v, want %v", inc, want)
	}
	// For b there are two sinks (the match and y): charged half.
	bi := g.inputIndex(sub.NodeByName("b").ID)
	incB := lm.wireIncrement(g, bi)
	ptsB := append(append([]geom.Point(nil), g.pts(bi)...), g.gatePos)
	wantB := new(wire.Scratch).NetLength(lm.opt.WireModel, ptsB) / 2
	if math.Abs(incB-wantB) > 1e-9 {
		t.Errorf("increment(b) = %v, want %v", incB, wantB)
	}
}

// The rectangle-incremental HPWL fast path and the explicit spanning-tree
// path must agree with the wire estimators for the same pin sets.
func TestWireIncrementSpanningTreeModel(t *testing.T) {
	sub, lm := fixture(t)
	lm.opt.WireModel = wire.ModelSpanningTree
	x := sub.NodeByName("x").ID
	lm.state[x] = StateNestling
	m := nand2MatchAt(t, lm, x)
	lm.fanoutGeometry(x)
	g := lm.geometry(x, m)
	for i := range g.distinctIn {
		pts := append(append([]geom.Point(nil), g.pts(i)...), g.gatePos)
		want := new(wire.Scratch).NetLength(wire.ModelSpanningTree, pts) / float64(len(g.fans(i))+1)
		if got := lm.wireIncrement(g, i); math.Abs(got-want) > 1e-12 {
			t.Errorf("rmst increment(%d) = %v, want %v", i, got, want)
		}
	}
}

// §3.2: each update rule yields a sensible candidate position inside the
// region spanned by the match's environment.
func TestUpdateRulePositions(t *testing.T) {
	sub, lm := fixture(t)
	x := sub.NodeByName("x").ID
	lm.state[x] = StateNestling
	m := nand2MatchAt(t, lm, x)
	lm.fanoutGeometry(x)
	span := geom.Enclosing([]geom.Point{{X: 0, Y: 0}, {X: 20, Y: 10}})
	for _, rule := range []UpdateRule{CMOfFans, CMOfMerged, MedianFans} {
		lm.opt.Update = rule
		g := lm.geometry(x, m)
		if !span.Contains(g.gatePos) {
			t.Errorf("%v: gate position %v outside environment", rule, g.gatePos)
		}
	}
	// CM-of-Merged with a single covered node lands exactly on its
	// placePosition.
	lm.opt.Update = CMOfMerged
	g := lm.geometry(x, m)
	if g.gatePos != (geom.Point{X: 5, Y: 5}) {
		t.Errorf("cm-of-merged = %v, want the node's placePosition", g.gatePos)
	}
}

// cachedFans must switch from placePositions to mapPositions when a
// consumer becomes a hawk (§3.3). The fixture mutates lifecycle state by
// hand, so it moves the signal's stamp explicitly — the invalidation that
// commitCone performs for real runs.
func TestTrueFanoutsUseHawkPositions(t *testing.T) {
	sub, lm := fixture(t)
	bID := sub.NodeByName("b").ID
	yID := sub.NodeByName("y").ID
	// Before commitment: y is an egg at its placePosition.
	fans := lm.cachedFans(bID)
	if len(fans) != 2 { // x and y
		t.Fatalf("true fanouts of b = %d", len(fans))
	}
	// Commit y as a hawk consuming b at a new mapPosition.
	var invMatch *match.Match
	ms := lm.matchesAt(yID)
	for i := range ms {
		if ms[i].Gate.Name == "inv" {
			invMatch = &ms[i]
		}
	}
	lm.state[yID] = StateHawk
	lm.best[yID] = invMatch
	lm.mapPos[yID] = geom.Point{X: 3, Y: 3}
	lm.hawkConsumers[bID] = append(lm.hawkConsumers[bID], hawkRef{hawk: yID, gate: invMatch.Gate})
	lm.stamps[bID].ver++ // manual state mutation: invalidate like a commit would
	fans = lm.cachedFans(bID)
	foundHawk := false
	for _, tf := range fans {
		if tf.hawk {
			foundHawk = true
			if tf.pos != (geom.Point{X: 3, Y: 3}) {
				t.Errorf("hawk fanout at %v, want mapPosition (3,3)", tf.pos)
			}
			if tf.cap != invMatch.Gate.InputCap {
				t.Errorf("hawk cap = %v", tf.cap)
			}
		}
	}
	if !foundHawk {
		t.Error("hawk consumer not reported as true fanout")
	}
}

// The fan cache returns the memoized list while the signal's stamp is
// unchanged and rebuilds after a consumer transition moves it;
// egg→nestling keeps the cache warm, transitions leave the stamps of
// unrelated signals untouched, and a consumer that returns to the live
// pair restores the stamp it left.
func TestFanCacheVersionInvalidation(t *testing.T) {
	sub, lm := fixture(t)
	bID := sub.NodeByName("b").ID
	aID := sub.NodeByName("a").ID
	xID := sub.NodeByName("x").ID
	yID := sub.NodeByName("y").ID

	first := lm.cachedFans(bID)
	if len(first) != 2 {
		t.Fatalf("fanouts of b = %d, want 2", len(first))
	}
	stampB := lm.stamps[bID]
	// Egg→nestling must not move any stamp: both states are live
	// consumers at unchanged positions.
	if err := lm.setState(xID, StateNestling); err != nil {
		t.Fatal(err)
	}
	if lm.stamps[bID] != stampB {
		t.Fatalf("egg→nestling moved stamps[b] %v -> %v", stampB, lm.stamps[bID])
	}
	again := lm.cachedFans(bID)
	if &again[0] != &first[0] || len(again) != len(first) {
		t.Error("cache rebuilt despite unchanged stamp")
	}
	// Nestling→dove must move exactly the dove's fanins' stamps: x stops
	// being a consumer of b (and of a), while signals x does not read
	// keep their stamps and stay warm.
	if err := lm.setState(yID, StateNestling); err != nil {
		t.Fatal(err)
	}
	stampA, stampX := lm.stamps[aID], lm.stamps[xID]
	if err := lm.setState(xID, StateDove); err != nil {
		t.Fatal(err)
	}
	if lm.stamps[bID] == stampB {
		t.Fatal("nestling→dove did not move the dove's fanin stamp")
	}
	if lm.stamps[aID] == stampA {
		t.Fatal("nestling→dove did not move fanin a's stamp")
	}
	if lm.stamps[xID] != stampX {
		t.Fatalf("nestling→dove of x moved x's own stamp %v -> %v", stampX, lm.stamps[xID])
	}
	fans := lm.cachedFans(bID)
	if len(fans) != 1 || fans[0].node != yID {
		t.Errorf("after x→dove, fanouts of b = %v, want just y", fans)
	}
	// Dove→nestling (a reincarnation) makes x live again: b's list has
	// its old contents, and b's stamp its old value.
	if err := lm.setState(xID, StateNestling); err != nil {
		t.Fatal(err)
	}
	if lm.stamps[bID] != stampB || lm.stamps[aID] != stampA {
		t.Errorf("dove→nestling left stamps a=%v b=%v, want the live-pair stamps a=%v b=%v",
			lm.stamps[aID], lm.stamps[bID], stampA, stampB)
	}
	if fans := lm.cachedFans(bID); len(fans) != 2 {
		t.Errorf("after x→nestling, fanouts of b = %v, want x and y", fans)
	}
	// Becoming a hawk moves the hawk's own stamp: its readers stop
	// charging its area and wire.
	if err := lm.setState(yID, StateHawk); err != nil {
		t.Fatal(err)
	}
	if lm.stamps[yID].ver == 1 {
		t.Error("nestling→hawk did not move the hawk's own stamp")
	}
}

// TestMergedExcludesRootFanouts pins the invariant fanoutGeometry rests
// on: over every paper circuit at the ASIC and 6-LUT targets, no
// candidate match covers a fanout of its own root, so no candidate can
// remove a point from the root's fanout rectangle.
func TestMergedExcludesRootFanouts(t *testing.T) {
	lib := library.Big()
	for _, p := range bench.Profiles() {
		_, sub := subjectFor(t, p.Name)
		for _, be := range []Backend{match.NewMatcher(sub, lib), cut.NewEnumerator(sub, lib, TargetLUT6.LUTK())} {
			checked := 0
			for _, nd := range sub.Nodes {
				if nd == nil || nd.Kind != logic.KindLogic {
					continue
				}
				ms := be.MatchesAt(nd.ID)
				for i := range ms {
					for _, u := range ms[i].Merged() {
						if slices.Contains(sub.Fanouts(nd.ID), u) {
							t.Fatalf("%s: match %v covers %d, a fanout of its root", p.Name, &ms[i], u)
						}
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatalf("%s: no matches checked", p.Name)
			}
		}
	}
}

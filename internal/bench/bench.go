// Package bench generates the synthetic benchmark suite used to reproduce
// the paper's evaluation.
//
// The paper evaluates on MCNC/ISCAS-85 circuits (9symml, C432, ... misex3)
// that are not distributable here, so each named benchmark is replaced by a
// deterministic seeded generator producing a combinational network with the
// same primary-input/primary-output counts and a node budget chosen so the
// premapped NAND2/INV "inchoate" network lands at the same scale the paper
// reports (e.g. C5315 premaps to roughly 1900 base gates). The generator
// builds layered random logic with spatial locality (each signal carries an
// abstract coordinate and fanins are drawn near a random center), which
// reproduces the clustered connectivity structure that makes layout-driven
// mapping matter; reconvergent fanout arises naturally from fanout reuse.
package bench

import (
	"fmt"
	"math"
	"math/rand"

	"lily/internal/logic"
)

// Profile describes one synthetic benchmark.
type Profile struct {
	Name     string
	PIs      int
	POs      int
	Nodes    int // target internal node count of the optimized network
	MaxFanin int
	XORFrac  float64 // fraction of XOR-like nodes (parity-rich circuits)
	Seed     int64
	// Tiles, when above one, partitions the circuit into that many weakly
	// coupled blocks: PIs, internal nodes, and POs are split evenly across
	// tiles and fanins are drawn inside the tile, except for a CrossFrac
	// fraction of nodes that take one fanin from an earlier tile. This is
	// the structure of real large designs — hierarchical blocks with thin
	// interconnect — and it keeps logic cones local: a flat recency-biased
	// draw at 10^5 nodes degenerates into one deep chain whose every
	// output cone spans most of the network, which no real netlist does.
	// Zero or one keeps the flat single-block structure (all paper-suite
	// profiles), whose generation stream is unchanged byte for byte.
	Tiles int
	// CrossFrac is the fraction of tile nodes with one cross-tile fanin;
	// generateTiled defaults it to 0.03 when unset.
	CrossFrac float64
}

// profiles lists the 15 circuits of the paper's Tables 1 and 2 with their
// real PI/PO counts and node budgets scaled to the paper's gate counts.
var profiles = []Profile{
	{Name: "9symml", PIs: 9, POs: 1, Nodes: 65, MaxFanin: 4, XORFrac: 0.15, Seed: 9001},
	{Name: "C1908", PIs: 33, POs: 25, Nodes: 200, MaxFanin: 4, XORFrac: 0.25, Seed: 1908},
	{Name: "C3540", PIs: 50, POs: 22, Nodes: 430, MaxFanin: 5, XORFrac: 0.10, Seed: 3540},
	{Name: "C432", PIs: 36, POs: 7, Nodes: 85, MaxFanin: 5, XORFrac: 0.20, Seed: 432},
	{Name: "C499", PIs: 41, POs: 32, Nodes: 170, MaxFanin: 4, XORFrac: 0.40, Seed: 499},
	{Name: "C5315", PIs: 178, POs: 123, Nodes: 760, MaxFanin: 5, XORFrac: 0.05, Seed: 5315},
	{Name: "C880", PIs: 60, POs: 26, Nodes: 165, MaxFanin: 4, XORFrac: 0.10, Seed: 880},
	{Name: "apex6", PIs: 135, POs: 99, Nodes: 290, MaxFanin: 5, XORFrac: 0.05, Seed: 6001},
	{Name: "apex7", PIs: 49, POs: 37, Nodes: 105, MaxFanin: 4, XORFrac: 0.05, Seed: 7001},
	{Name: "b9", PIs: 41, POs: 21, Nodes: 55, MaxFanin: 4, XORFrac: 0.05, Seed: 901},
	{Name: "apex3", PIs: 54, POs: 50, Nodes: 620, MaxFanin: 5, XORFrac: 0.05, Seed: 3001},
	{Name: "duke2", PIs: 22, POs: 29, Nodes: 150, MaxFanin: 5, XORFrac: 0.05, Seed: 2201},
	{Name: "e64", PIs: 65, POs: 65, Nodes: 105, MaxFanin: 4, XORFrac: 0.0, Seed: 6401},
	{Name: "misex1", PIs: 8, POs: 7, Nodes: 28, MaxFanin: 4, XORFrac: 0.05, Seed: 101},
	{Name: "misex3", PIs: 14, POs: 14, Nodes: 260, MaxFanin: 5, XORFrac: 0.05, Seed: 303},
}

// scaleProfiles lists the synthetic scale suite behind the ROADMAP's
// "production scale" yardstick. Node budgets are chosen so the premapped
// NAND2/INV networks land near the advertised gate counts (premap expands
// a factored network roughly 2.5x): the mid* circuits are the midsize
// golden carriers, the gen* circuits stress the multilevel placement
// regime from 50k up to 500k gates.
var scaleProfiles = []Profile{
	{Name: "mid5k", PIs: 64, POs: 48, Nodes: 2000, MaxFanin: 5, XORFrac: 0.08, Seed: 50001, Tiles: 4},
	{Name: "mid10k", PIs: 96, POs: 64, Nodes: 4000, MaxFanin: 5, XORFrac: 0.08, Seed: 100001, Tiles: 6},
	{Name: "gen50k", PIs: 256, POs: 192, Nodes: 20000, MaxFanin: 5, XORFrac: 0.06, Seed: 500001, Tiles: 24},
	{Name: "gen100k", PIs: 384, POs: 256, Nodes: 40000, MaxFanin: 5, XORFrac: 0.06, Seed: 1000001, Tiles: 40},
	{Name: "gen200k", PIs: 512, POs: 384, Nodes: 80000, MaxFanin: 5, XORFrac: 0.05, Seed: 2000001, Tiles: 64},
	{Name: "gen500k", PIs: 768, POs: 512, Nodes: 200000, MaxFanin: 5, XORFrac: 0.05, Seed: 5000001, Tiles: 128},
}

// Profiles returns the benchmark suite in the paper's Table 1 row order.
// The scale suite is deliberately separate (ScaleProfiles) so the golden
// tables and Table 1/2 reproductions keep their fifteen rows.
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// ScaleProfiles returns the 50k–500k-gate scale suite (plus the two
// midsize golden carriers) in ascending size order.
func ScaleProfiles() []Profile {
	out := make([]Profile, len(scaleProfiles))
	copy(out, scaleProfiles)
	return out
}

// ProfileByName looks up a named benchmark profile in the paper suite and
// the scale suite.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range scaleProfiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Table2Names lists the 12 circuits that appear in the paper's Table 2.
func Table2Names() []string {
	return []string{"9symml", "C1908", "C432", "C499", "C5315", "C880",
		"apex7", "b9", "duke2", "e64", "misex1", "misex3"}
}

// Generate builds the network for a profile. The result is swept, checked,
// and deterministic for a given profile.
func Generate(p Profile) *logic.Network {
	n, err := generate(p)
	if err != nil {
		panic(fmt.Sprintf("bench: generate %s: %v", p.Name, err))
	}
	return n
}

// Random builds a parametric random network, for tests and property checks.
func Random(seed int64, pis, pos, nodes, maxFanin int) *logic.Network {
	p := Profile{
		Name: fmt.Sprintf("rand%d", seed), PIs: pis, POs: pos,
		Nodes: nodes, MaxFanin: maxFanin, XORFrac: 0.1, Seed: seed,
	}
	return Generate(p)
}

type signal struct {
	id    logic.NodeID
	level int
	coord float64 // abstract 1-D position in [0,1) driving locality
	uses  int
}

func generate(p Profile) (*logic.Network, error) {
	if p.PIs < 1 || p.POs < 1 || p.Nodes < 1 {
		return nil, fmt.Errorf("bad profile %+v", p)
	}
	if p.MaxFanin < 2 {
		p.MaxFanin = 2
	}
	if p.Tiles > 1 {
		return generateTiled(p)
	}
	//lint:impure generator is seeded from p.Seed (fixed per profile), so the generated network is reproducible
	rng := rand.New(rand.NewSource(p.Seed))
	n := logic.New(p.Name)

	sigs := make([]signal, 0, p.PIs+p.Nodes)
	for i := 0; i < p.PIs; i++ {
		pi := n.AddPI(fmt.Sprintf("pi%d", i))
		sigs = append(sigs, signal{id: pi.ID, coord: (float64(i) + 0.5) / float64(p.PIs)})
	}

	for k := 0; k < p.Nodes; k++ {
		fi := pickFaninCount(rng, p.MaxFanin)
		idxs := pickFanins(rng, sigs, fi)
		fanins := make([]logic.NodeID, len(idxs))
		coord, level := 0.0, 0
		for i, si := range idxs {
			fanins[i] = sigs[si].id
			coord += sigs[si].coord
			if sigs[si].level+1 > level {
				level = sigs[si].level + 1
			}
			sigs[si].uses++
		}
		coord = coord/float64(len(idxs)) + (rng.Float64()-0.5)*0.08
		coord = math.Mod(coord+1, 1)
		cover := pickCover(rng, len(fanins), p.XORFrac)
		nd := n.AddLogic(fmt.Sprintf("g%d", k), fanins, cover)
		sigs = append(sigs, signal{id: nd.ID, level: level, coord: coord})
	}

	markOutputs(rng, n, sigs, p.POs, 0)
	n.Sweep()
	if err := n.Check(); err != nil {
		return nil, err
	}
	return n, nil
}

// share splits total into near-even tile parts: part t is the difference
// of rounded prefix sums, so parts differ by at most one and always sum
// to total.
func share(total, tiles, t int) int {
	return total*(t+1)/tiles - total*t/tiles
}

// crossMaxLevel bounds the depth of signals eligible as cross-tile
// fanins. A deep signal would drag its whole transitive fanin — most of
// an earlier tile — into every consumer's logic cone, defeating the
// point of tiling; shallow signals (PIs and near-PI logic) have
// constant-size support, like the global control and status nets that
// couple real blocks.
const crossMaxLevel = 2

// generateTiled builds the weakly coupled block structure described on
// Profile.Tiles. Tiles are generated in sequence; each tile's signal pool
// is one contiguous slice of sigs (its PIs are created right before its
// nodes), so the flat pickFanins locality machinery applies unchanged
// within the tile. A CrossFrac fraction of nodes swap their last fanin
// for a shallow signal of an earlier tile — earlier-only links keep the
// construction trivially acyclic — and outputs are marked per tile from
// the tile's own signals, which bounds every PO cone's support by
// roughly the tile size plus the thin cross-tile tail.
func generateTiled(p Profile) (*logic.Network, error) {
	cross := p.CrossFrac
	if cross == 0 {
		cross = 0.03
	}
	if p.PIs < 2*p.Tiles {
		return nil, fmt.Errorf("bench: profile %s has %d PIs for %d tiles; need at least two per tile", p.Name, p.PIs, p.Tiles)
	}
	if p.POs < p.Tiles {
		return nil, fmt.Errorf("bench: profile %s has %d POs for %d tiles; need at least one per tile", p.Name, p.POs, p.Tiles)
	}
	//lint:impure generator is seeded from p.Seed (fixed per profile), so the generated network is reproducible
	rng := rand.New(rand.NewSource(p.Seed))
	n := logic.New(p.Name)
	sigs := make([]signal, 0, p.PIs+p.Nodes)
	var shallow []int // sigs indices with level <= crossMaxLevel
	piIdx, gIdx, poIdx := 0, 0, 0
	for t := 0; t < p.Tiles; t++ {
		lo := len(sigs)
		crossPool := len(shallow) // shallow signals of earlier tiles only
		pis := share(p.PIs, p.Tiles, t)
		for i := 0; i < pis; i++ {
			pi := n.AddPI(fmt.Sprintf("pi%d", piIdx))
			piIdx++
			shallow = append(shallow, len(sigs))
			sigs = append(sigs, signal{id: pi.ID, coord: (float64(i) + 0.5) / float64(pis)})
		}
		for k := 0; k < share(p.Nodes, p.Tiles, t); k++ {
			fi := pickFaninCount(rng, p.MaxFanin)
			local := sigs[lo:]
			idxs := pickFanins(rng, local, fi)
			fanins := make([]logic.NodeID, len(idxs))
			coord, level := 0.0, 0
			for i, si := range idxs {
				fanins[i] = local[si].id
				coord += local[si].coord
				if local[si].level+1 > level {
					level = local[si].level + 1
				}
				local[si].uses++
			}
			if crossPool > 0 && len(fanins) >= 2 && rng.Float64() < cross {
				// Cross-tile link: the earlier-tile signal cannot collide
				// with the local fanins, so distinctness is preserved.
				gi := shallow[rng.Intn(crossPool)]
				last := idxs[len(idxs)-1]
				local[last].uses--
				coord += sigs[gi].coord - local[last].coord
				fanins[len(fanins)-1] = sigs[gi].id
				sigs[gi].uses++
				if sigs[gi].level+1 > level {
					level = sigs[gi].level + 1
				}
			}
			coord = coord/float64(len(idxs)) + (rng.Float64()-0.5)*0.08
			coord = math.Mod(coord+1, 1)
			cover := pickCover(rng, len(fanins), p.XORFrac)
			nd := n.AddLogic(fmt.Sprintf("g%d", gIdx), fanins, cover)
			gIdx++
			if level <= crossMaxLevel {
				shallow = append(shallow, len(sigs))
			}
			sigs = append(sigs, signal{id: nd.ID, level: level, coord: coord})
		}
		poIdx = markOutputs(rng, n, sigs[lo:], share(p.POs, p.Tiles, t), poIdx)
	}
	n.Sweep()
	if err := n.Check(); err != nil {
		return nil, err
	}
	return n, nil
}

// pickFaninCount draws a fanin count biased toward 2 and 3, matching the
// literal distribution of factored MCNC networks.
func pickFaninCount(rng *rand.Rand, max int) int {
	r := rng.Float64()
	switch {
	case r < 0.50 || max < 3:
		return 2
	case r < 0.80 || max < 4:
		return 3
	case r < 0.95 || max < 5:
		return 4
	default:
		return 5
	}
}

// pickFanins selects fi distinct signal indices with spatial locality: a
// random center coordinate is drawn and candidates are accepted with a
// probability that decays with distance from the center. Half of the draws
// are restricted to recently created signals so the network gains depth.
func pickFanins(rng *rand.Rand, sigs []signal, fi int) []int {
	if fi > len(sigs) {
		fi = len(sigs)
	}
	center := rng.Float64()
	chosen := make(map[int]bool, fi)
	out := make([]int, 0, fi)
	const window = 40
	for len(out) < fi {
		var cand int
		if rng.Float64() < 0.5 && len(sigs) > window {
			cand = len(sigs) - 1 - rng.Intn(window)
		} else {
			cand = rng.Intn(len(sigs))
		}
		if chosen[cand] {
			continue
		}
		d := math.Abs(sigs[cand].coord - center)
		if d > 0.5 {
			d = 1 - d // wraparound distance
		}
		// Locality acceptance with fanout-balancing bias.
		accept := math.Exp(-d/0.12) / (1 + 0.3*float64(sigs[cand].uses))
		if rng.Float64() < accept || rng.Float64() < 0.02 {
			chosen[cand] = true
			out = append(out, cand)
		}
	}
	return out
}

func pickCover(rng *rand.Rand, fi int, xorFrac float64) logic.SOP {
	if rng.Float64() < xorFrac && fi <= 3 {
		return logic.XorSOP(fi)
	}
	switch rng.Intn(5) {
	case 0:
		return logic.AndSOP(fi)
	case 1:
		return logic.OrSOP(fi)
	case 2:
		return logic.NandSOP(fi)
	case 3:
		return logic.NorSOP(fi)
	default:
		// Random two-level cover: a handful of random cubes.
		s := logic.NewSOP(fi)
		cubes := 1 + rng.Intn(3)
		for c := 0; c < cubes; c++ {
			cube := make(logic.Cube, fi)
			nonDC := false
			for j := range cube {
				switch rng.Intn(3) {
				case 0:
					cube[j] = logic.LitPos
					nonDC = true
				case 1:
					cube[j] = logic.LitNeg
					nonDC = true
				default:
					cube[j] = logic.LitDC
				}
			}
			if !nonDC {
				cube[rng.Intn(fi)] = logic.LitPos
			}
			s.AddCube(cube)
		}
		return s
	}
}

// markOutputs designates POs: every unused internal node becomes (or is
// merged toward) an output so the network survives sweeping, then
// additional high-level nodes are promoted until the PO budget is met.
// PO names start at poStart (nonzero for the tiled generator, which marks
// outputs per tile); the count of freshly marked POs is bounded by pos
// and the next free name index is returned.
func markOutputs(rng *rand.Rand, n *logic.Network, sigs []signal, pos, poStart int) int {
	var unused []signal
	for _, s := range sigs {
		nd := n.Node(s.id)
		if nd != nil && nd.Kind == logic.KindLogic && s.uses == 0 {
			unused = append(unused, s)
		}
	}
	// Combine surplus unused nodes pairwise with OR gates until they fit
	// the PO budget; the combiners keep all generated logic observable.
	for len(unused) > pos {
		a := unused[len(unused)-1]
		b := unused[len(unused)-2]
		unused = unused[:len(unused)-2]
		nd := n.AddLogic("", []logic.NodeID{a.id, b.id}, logic.OrSOP(2))
		lv := a.level
		if b.level > lv {
			lv = b.level
		}
		unused = append(unused, signal{id: nd.ID, level: lv + 1, coord: (a.coord + b.coord) / 2})
	}
	marked := 0
	for _, s := range unused {
		n.MarkPO(s.id, fmt.Sprintf("po%d", poStart+marked))
		marked++
	}
	// Promote additional used nodes (prefer deep ones) to reach the budget.
	if marked < pos {
		var cands []signal
		for _, s := range sigs {
			nd := n.Node(s.id)
			if nd != nil && nd.Kind == logic.KindLogic && s.uses > 0 {
				cands = append(cands, s)
			}
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		// Prefer deeper candidates: stable selection by level descending.
		for lvl := maxLevel(cands); lvl >= 0 && marked < pos; lvl-- {
			for _, s := range cands {
				if marked >= pos {
					break
				}
				if s.level == lvl && !n.IsPO(s.id) {
					n.MarkPO(s.id, fmt.Sprintf("po%d", poStart+marked))
					marked++
				}
			}
		}
	}
	return poStart + marked
}

func maxLevel(sigs []signal) int {
	m := 0
	for _, s := range sigs {
		if s.level > m {
			m = s.level
		}
	}
	return m
}

// Package equiv checks functional equivalence between a source Boolean
// network and a mapped netlist. It has two formal engines.
//
// Compositional, the one mapping flows run (through Prove), follows the
// pipeline's own stages: it proves each source node equal to its
// NAND2/INV tree in the subject graph, each cell equal to the subject
// cone it covers, and the netlist's wiring equal to the cover's, one
// local check per node or cell with every cut point a free variable.
// Its cost is linear in the circuits' size.
//
// Check compares the whole circuits: BDDs (package bdd) over one
// primary-input order shared by both sides, the order in which a
// depth-first walk from the source's outputs first reaches each input,
// with every node's or cell's cover composed over its fanins by Shannon
// expansion, under a node budget. When a circuit blows the budget the
// checker degrades to randomized simulation and reports that the verdict
// is only statistical. Prove falls back to it where a local check fails,
// and treats a sampled verdict as an error.
package equiv

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"lily/internal/bdd"
	"lily/internal/logic"
	"lily/internal/netlist"
)

// Method records how a verdict was reached.
type Method int

const (
	// MethodBDD means the equivalence was proved (or disproved with a
	// counterexample) formally.
	MethodBDD Method = iota
	// MethodSimulation means only randomized simulation was feasible.
	MethodSimulation
	// MethodCompositional means Compositional proved the equivalence
	// cone by cone through the subject graph.
	MethodCompositional
)

func (m Method) String() string {
	switch m {
	case MethodSimulation:
		return "simulation"
	case MethodCompositional:
		return "compositional"
	}
	return "bdd"
}

// Result is the verdict of a check.
type Result struct {
	Equivalent bool
	Method     Method
	// FailingOutput names the first differing output when not equivalent.
	FailingOutput string
	// Counterexample gives PI values exposing the difference (BDD mode).
	Counterexample map[string]bool
	// BDDNodes is the peak node count of the formal check.
	BDDNodes int
	// Vectors is the number of simulation vectors used (simulation mode).
	Vectors int
}

// Options tunes the checker.
type Options struct {
	// MaxBDDNodes is the formal-engine budget (default 2,000,000).
	MaxBDDNodes int
	// SimVectors is the randomized fallback's vector count (default 256).
	SimVectors int
	// Seed drives the fallback's vector generation.
	Seed int64
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{MaxBDDNodes: 2_000_000, SimVectors: 256, Seed: 1}
}

// Check compares the source network with the mapped netlist.
func Check(src *logic.Network, nl *netlist.Netlist, opt Options) (*Result, error) {
	if opt.MaxBDDNodes <= 0 {
		opt.MaxBDDNodes = 2_000_000
	}
	if opt.SimVectors <= 0 {
		opt.SimVectors = 256
	}
	piNames := sortedPINames(src)
	if err := sameInterfaces(src, nl, piNames); err != nil {
		return nil, err
	}
	srcOrder, err := src.TopoOrder()
	if err != nil {
		return nil, err
	}
	nlOrder, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	res, err := checkBDD(src, nl, srcOrder, nlOrder, opt.MaxBDDNodes)
	if err == nil {
		return res, nil
	}
	if err != bdd.ErrNodeLimit {
		return nil, err
	}
	return checkSim(src, nl, srcOrder, nlOrder, opt), nil
}

func sortedPINames(src *logic.Network) []string {
	names := make([]string, 0, len(src.PIs))
	for _, pi := range src.PIs {
		names = append(names, src.Nodes[pi].Name)
	}
	sort.Strings(names)
	return names
}

// sameInterfaces requires the netlist to read exactly the source's inputs
// and drive exactly its outputs.
func sameInterfaces(src *logic.Network, nl *netlist.Netlist, piNames []string) error {
	if err := sameNames("input", piNames, nl.PINames); err != nil {
		return err
	}
	poNames := make([]string, len(nl.POs))
	for i, po := range nl.POs {
		poNames[i] = po.Name
	}
	return sameNames("output", src.PONames, poNames)
}

// sameNames requires got to list exactly the names in want, and each name
// to appear once on both sides.
func sameNames(kind string, want, got []string) error {
	inSrc := make(map[string]bool, len(want))
	for _, n := range want {
		if inSrc[n] {
			return fmt.Errorf("equiv: source %s %q listed twice", kind, n)
		}
		inSrc[n] = true
	}
	inNl := make(map[string]bool, len(got))
	for _, n := range got {
		if !inSrc[n] {
			return fmt.Errorf("equiv: netlist %s %q not in source", kind, n)
		}
		if inNl[n] {
			return fmt.Errorf("equiv: netlist %s %q listed twice", kind, n)
		}
		inNl[n] = true
	}
	for _, n := range want {
		if !inNl[n] {
			return fmt.Errorf("equiv: netlist lacks %s %q", kind, n)
		}
	}
	return nil
}

func checkBDD(src *logic.Network, nl *netlist.Netlist, srcOrder []logic.NodeID, nlOrder []int, budget int) (*Result, error) {
	vars := variableOrder(src)
	m := bdd.New(len(vars), budget)
	varOf := make(map[string]int, len(vars))
	for i, n := range vars {
		varOf[n] = i
	}
	c := &composer{m: m, budget: budget}
	srcPO, err := networkBDDs(c, src, srcOrder, varOf)
	if err != nil {
		return nil, err
	}
	nlPO, err := netlistBDDs(c, nl, nlOrder, varOf)
	if err != nil {
		return nil, err
	}
	res := &Result{Equivalent: true, Method: MethodBDD, BDDNodes: m.NumNodes()}
	// Deterministic output order.
	names := make([]string, 0, len(srcPO))
	for n := range srcPO {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		a, b := srcPO[name], nlPO[name]
		if a == b {
			continue
		}
		diff, err := m.Xor(a, b)
		if err != nil {
			return nil, err
		}
		if diff == bdd.False {
			continue // same function, different refs cannot happen, but be safe
		}
		res.Equivalent = false
		res.FailingOutput = name
		assign := m.AnySatisfying(diff)
		cex := make(map[string]bool, len(vars))
		for i, n := range vars {
			cex[n] = assign[i]
		}
		res.Counterexample = cex
		break
	}
	res.BDDNodes = m.NumNodes()
	return res, nil
}

// variableOrder returns the primary-input names in BDD variable order:
// first visit in a depth-first walk from the outputs, in src.POs order,
// over fanins in pin order, then the inputs the walk never reaches in
// sorted-name order. Inputs that feed the same cone get neighbouring
// levels, which keeps the composed BDDs small where a name order says
// nothing about the circuit.
func variableOrder(src *logic.Network) []string {
	seen := make([]bool, len(src.Nodes))
	vars := make([]string, 0, len(src.PIs))
	type frame struct {
		id  logic.NodeID
		pin int
	}
	var stack []frame
	visit := func(id logic.NodeID) {
		seen[id] = true
		if nd := src.Nodes[id]; nd.Kind == logic.KindPI {
			vars = append(vars, nd.Name)
		}
		stack = append(stack, frame{id: id})
	}
	for _, po := range src.POs {
		if !seen[po] {
			visit(po)
		}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			fanins := src.Nodes[f.id].Fanins
			if f.pin == len(fanins) {
				stack = stack[:len(stack)-1]
				continue
			}
			next := fanins[f.pin]
			f.pin++
			if !seen[next] {
				visit(next)
			}
		}
	}
	var rest []string
	for _, pi := range src.PIs {
		if !seen[pi] {
			rest = append(rest, src.Nodes[pi].Name)
		}
	}
	sort.Strings(rest)
	return append(vars, rest...)
}

// networkBDDs builds PO BDDs for a logic network.
func networkBDDs(c *composer, src *logic.Network, order []logic.NodeID, varOf map[string]int) (map[string]bdd.Ref, error) {
	refs := make([]bdd.Ref, len(src.Nodes))
	var ins []bdd.Ref
	for _, id := range order {
		nd := src.Nodes[id]
		if nd.Kind == logic.KindPI {
			r, err := c.m.Var(varOf[nd.Name])
			if err != nil {
				return nil, err
			}
			refs[id] = r
			continue
		}
		ins = ins[:0]
		for _, f := range nd.Fanins {
			ins = append(ins, refs[f])
		}
		r, err := c.cover(nd.Cover, ins)
		if err != nil {
			return nil, err
		}
		refs[id] = r
	}
	out := make(map[string]bdd.Ref, len(src.POs))
	for i, po := range src.POs {
		out[src.PONames[i]] = refs[po]
	}
	return out, nil
}

// netlistBDDs builds PO BDDs for a mapped netlist, each cell from its truth word.
func netlistBDDs(c *composer, nl *netlist.Netlist, order []int, varOf map[string]int) (map[string]bdd.Ref, error) {
	piRef := make([]bdd.Ref, len(nl.PINames))
	for i, name := range nl.PINames {
		r, err := c.m.Var(varOf[name])
		if err != nil {
			return nil, err
		}
		piRef[i] = r
	}
	cellRef := make([]bdd.Ref, len(nl.Cells))
	refOf := func(r netlist.Ref) bdd.Ref {
		if r.IsPI {
			return piRef[r.Index]
		}
		return cellRef[r.Index]
	}
	var ins []bdd.Ref
	for _, ci := range order {
		cell := nl.Cells[ci]
		ins = ins[:0]
		for _, r := range cell.Inputs {
			ins = append(ins, refOf(r))
		}
		c.ins = ins
		r, err := c.word(cell.Gate.Truth, len(ins))
		if err != nil {
			return nil, err
		}
		cellRef[ci] = r
	}
	out := make(map[string]bdd.Ref, len(nl.POs))
	for _, po := range nl.POs {
		out[po.Name] = refOf(po.Driver)
	}
	return out, nil
}

// composer builds the BDD of an SOP cover over its fanins' BDDs by
// Shannon expansion, from the last input down:
// f = ITE(in_k, f|in_k=1, f|in_k=0). While more than six inputs remain it
// cofactors the cube list: f|in_k=v keeps every cube whose literal on
// input k admits v, cut to the inputs below k, so each cofactor is again
// a cover. Once at most six inputs remain the cover is one truth word and
// the expansion continues on logic.Cofactors. An input on which the two
// cofactors agree is skipped, so no BDD is built for an input the
// function ignores and no complemented copy of a fanin is made for a
// negative literal.
type composer struct {
	m   *bdd.Manager
	ins []bdd.Ref
	// cubes is a stack of cofactor cube lists: each expansion step above
	// six inputs pushes its cofactors and pops them on return.
	cubes []logic.Cube
	// memo maps a cofactor above six inputs, keyed by its width and
	// literals, to its BDD for the cover being composed. Different
	// assignments to the upper inputs often leave the same cubes, and
	// without the memo the expansion would be exponential in the cube
	// count. key is its reused key buffer.
	memo map[string]bdd.Ref
	key  []byte
	// steps counts the memo's misses for the check; past budget the
	// composition fails like a BDD operation that exceeds the node budget.
	steps, budget int
}

// cover returns the BDD of cover over the fanin BDDs ins.
func (c *composer) cover(cover logic.SOP, ins []bdd.Ref) (bdd.Ref, error) {
	c.ins = ins
	c.memo = nil
	return c.expand(cover.Cubes, cover.NumInputs)
}

// expand composes the cover of cubes over inputs 0..k-1; every cube has
// length k.
func (c *composer) expand(cubes []logic.Cube, k int) (bdd.Ref, error) {
	if k <= len(logic.VarTT) {
		return c.word(logic.SOP{NumInputs: k, Cubes: cubes}.TruthWord(), k)
	}
	if len(cubes) == 0 {
		return bdd.False, nil
	}
	c.key = binary.AppendUvarint(c.key[:0], uint64(k))
	for _, cube := range cubes {
		taut := true
		for _, l := range cube {
			c.key = append(c.key, byte(l))
			taut = taut && l == logic.LitDC
		}
		if taut {
			return bdd.True, nil
		}
	}
	if r, ok := c.memo[string(c.key)]; ok {
		return r, nil
	}
	if c.steps++; c.steps > c.budget {
		return bdd.False, bdd.ErrNodeLimit
	}
	key := string(c.key)
	x := k - 1
	start := len(c.cubes)
	for _, cube := range cubes {
		if cube[x] != logic.LitNeg {
			c.cubes = append(c.cubes, cube[:x])
		}
	}
	mid := len(c.cubes)
	for _, cube := range cubes {
		if cube[x] != logic.LitPos {
			c.cubes = append(c.cubes, cube[:x])
		}
	}
	// When no cube mentions input x the two cofactors are the same cube
	// list: the second comes back from the memo (or, at six inputs, as
	// the same truth word) and ITE returns it without a node for x.
	hi, err := c.expand(c.cubes[start:mid:mid], x)
	if err != nil {
		return bdd.False, err
	}
	lo, err := c.expand(c.cubes[mid:], x)
	if err != nil {
		return bdd.False, err
	}
	r, err := c.m.ITE(c.ins[x], hi, lo)
	if err != nil {
		return bdd.False, err
	}
	c.cubes = c.cubes[:start]
	if c.memo == nil {
		c.memo = make(map[string]bdd.Ref)
	}
	c.memo[key] = r
	return r, nil
}

// word composes the function of inputs 0..k-1 whose truth table, in the
// logic.VarTT row convention, is tt.
func (c *composer) word(tt uint64, k int) (bdd.Ref, error) {
	switch tt {
	case 0:
		return bdd.False, nil
	case logic.RowMask(k):
		return bdd.True, nil
	}
	x := k - 1
	f0, f1 := logic.Cofactors(tt, x)
	if f0 == f1 {
		return c.word(f0, x)
	}
	hi, err := c.word(f1, x)
	if err != nil {
		return bdd.False, err
	}
	lo, err := c.word(f0, x)
	if err != nil {
		return bdd.False, err
	}
	return c.m.ITE(c.ins[x], hi, lo)
}

// checkSim is the randomized fallback. It draws opt.SimVectors random
// input vectors, vector by vector and within a vector in src.PIs order,
// and simulates both circuits on 64 vectors per word. The verdict names
// the first failing vector and, among the outputs that differ on it, the
// first in sorted order.
func checkSim(src *logic.Network, nl *netlist.Netlist, srcOrder []logic.NodeID, nlOrder []int, opt Options) *Result {
	//lint:impure generator is seeded from opt.Seed (caller-fixed), so the vector sequence is reproducible
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{Equivalent: true, Method: MethodSimulation, Vectors: opt.SimVectors}
	nlPI := make(map[string]int, len(nl.PINames))
	for i, name := range nl.PINames {
		nlPI[name] = i
	}
	// Outputs in sorted name order, each as its source node and netlist driver.
	type output struct {
		name   string
		src    logic.NodeID
		driver netlist.Ref
	}
	outs := make([]output, len(src.POs))
	nlDriver := make(map[string]netlist.Ref, len(nl.POs))
	for _, po := range nl.POs {
		nlDriver[po.Name] = po.Driver
	}
	for i, po := range src.POs {
		outs[i] = output{src.PONames[i], po, nlDriver[src.PONames[i]]}
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].name < outs[j].name })

	srcVal := make([]uint64, len(src.Nodes))
	piVal := make([]uint64, len(nl.PINames))
	cellVal := make([]uint64, len(nl.Cells))
	nlVal := func(r netlist.Ref) uint64 {
		if r.IsPI {
			return piVal[r.Index]
		}
		return cellVal[r.Index]
	}
	var ins []uint64
	for base := 0; base < opt.SimVectors; base += 64 {
		n := min(64, opt.SimVectors-base)
		for _, pi := range src.PIs {
			srcVal[pi] = 0
		}
		for k := 0; k < n; k++ {
			for _, pi := range src.PIs {
				if rng.Intn(2) == 1 {
					srcVal[pi] |= 1 << k
				}
			}
		}
		for _, pi := range src.PIs {
			piVal[nlPI[src.Nodes[pi].Name]] = srcVal[pi]
		}
		for _, id := range srcOrder {
			nd := src.Nodes[id]
			if nd.Kind != logic.KindLogic {
				continue
			}
			ins = ins[:0]
			for _, f := range nd.Fanins {
				ins = append(ins, srcVal[f])
			}
			srcVal[id] = nd.Cover.EvalWords(ins)
		}
		for _, ci := range nlOrder {
			c := nl.Cells[ci]
			ins = ins[:0]
			for _, r := range c.Inputs {
				ins = append(ins, nlVal(r))
			}
			cellVal[ci] = logic.EvalTruthWords(c.Gate.Truth, ins)
		}
		valid := ^uint64(0) >> (64 - n)
		var fail uint64
		for _, o := range outs {
			fail |= (srcVal[o.src] ^ nlVal(o.driver)) & valid
		}
		if fail == 0 {
			continue
		}
		bit := uint64(1) << bits.TrailingZeros64(fail)
		for _, o := range outs {
			if (srcVal[o.src]^nlVal(o.driver))&bit != 0 {
				res.FailingOutput = o.name
				break
			}
		}
		res.Equivalent = false
		res.Counterexample = make(map[string]bool, len(src.PIs))
		for _, pi := range src.PIs {
			res.Counterexample[src.Nodes[pi].Name] = srcVal[pi]&bit != 0
		}
		return res
	}
	return res
}

// Package equiv checks functional equivalence between a source Boolean
// network and a mapped netlist. The primary engine is formal — BDDs over a
// shared primary-input ordering (package bdd) — with a node budget; when a
// circuit blows the budget the checker degrades to randomized simulation
// and reports that the verdict is only statistical.
package equiv

import (
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
)

func (m Method) String() string {
	if m == MethodSimulation {
		return "simulation"
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
	res, err := checkBDD(src, nl, srcOrder, nlOrder, piNames, opt.MaxBDDNodes)
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

func checkBDD(src *logic.Network, nl *netlist.Netlist, srcOrder []logic.NodeID, nlOrder []int, piNames []string, budget int) (*Result, error) {
	m := bdd.New(len(piNames), budget)
	varOf := make(map[string]int, len(piNames))
	for i, n := range piNames {
		varOf[n] = i
	}
	srcPO, err := networkBDDs(m, src, srcOrder, varOf)
	if err != nil {
		return nil, err
	}
	nlPO, err := netlistBDDs(m, nl, nlOrder, varOf)
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
		cex := make(map[string]bool, len(piNames))
		for i, n := range piNames {
			cex[n] = assign[i]
		}
		res.Counterexample = cex
		break
	}
	res.BDDNodes = m.NumNodes()
	return res, nil
}

// networkBDDs builds PO BDDs for a logic network.
func networkBDDs(m *bdd.Manager, src *logic.Network, order []logic.NodeID, varOf map[string]int) (map[string]bdd.Ref, error) {
	refs := make([]bdd.Ref, len(src.Nodes))
	for _, id := range order {
		nd := src.Nodes[id]
		if nd.Kind == logic.KindPI {
			r, err := m.Var(varOf[nd.Name])
			if err != nil {
				return nil, err
			}
			refs[id] = r
			continue
		}
		ins := make([]bdd.Ref, len(nd.Fanins))
		for i, f := range nd.Fanins {
			ins[i] = refs[f]
		}
		r, err := coverBDD(m, nd.Cover, ins)
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

// netlistBDDs builds PO BDDs for a mapped netlist.
func netlistBDDs(m *bdd.Manager, nl *netlist.Netlist, order []int, varOf map[string]int) (map[string]bdd.Ref, error) {
	piRef := make([]bdd.Ref, len(nl.PINames))
	for i, name := range nl.PINames {
		r, err := m.Var(varOf[name])
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
	for _, ci := range order {
		c := nl.Cells[ci]
		ins := make([]bdd.Ref, len(c.Inputs))
		for i, r := range c.Inputs {
			ins[i] = refOf(r)
		}
		r, err := coverBDD(m, c.Gate.Cover, ins)
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

// coverBDD composes an SOP cover over fanin BDDs.
func coverBDD(m *bdd.Manager, cover logic.SOP, ins []bdd.Ref) (bdd.Ref, error) {
	acc := bdd.False
	for _, cube := range cover.Cubes {
		term := bdd.True
		for i, l := range cube {
			var lit bdd.Ref
			switch l {
			case logic.LitDC:
				continue
			case logic.LitPos:
				lit = ins[i]
			default:
				nl, err := m.Not(ins[i])
				if err != nil {
					return bdd.False, err
				}
				lit = nl
			}
			t, err := m.And(term, lit)
			if err != nil {
				return bdd.False, err
			}
			term = t
		}
		a, err := m.Or(acc, term)
		if err != nil {
			return bdd.False, err
		}
		acc = a
	}
	return acc, nil
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
			cellVal[ci] = c.Gate.Cover.EvalWords(ins)
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

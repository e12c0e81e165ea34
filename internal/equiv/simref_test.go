package equiv

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lily/internal/library"
	"lily/internal/logic"
	"lily/internal/netlist"
)

// checkSimRef is the vector-at-a-time simulation fallback: it evaluates
// both circuits through their name-keyed Eval once per random vector. It
// is the reference the word-parallel checkSim must reproduce exactly.
func checkSimRef(src *logic.Network, nl *netlist.Netlist, opt Options) (*Result, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{Equivalent: true, Method: MethodSimulation, Vectors: opt.SimVectors}
	for k := 0; k < opt.SimVectors; k++ {
		in := make(map[string]bool, len(src.PIs))
		for _, pi := range src.PIs {
			in[src.Nodes[pi].Name] = rng.Intn(2) == 1
		}
		want, err := src.Eval(in)
		if err != nil {
			return nil, err
		}
		got, err := nl.Eval(in)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(want))
		for name := range want {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if want[name] != got[name] {
				res.Equivalent = false
				res.FailingOutput = name
				res.Counterexample = in
				return res, nil
			}
		}
	}
	return res, nil
}

// swapGate replaces the gate of the n-th cell (counting from 0) whose
// gate is named from, or of every such cell when n < 0. It reports
// whether any cell changed.
func swapGate(nl *netlist.Netlist, from string, to *library.Gate, n int) bool {
	seen, changed := 0, false
	for _, c := range nl.Cells {
		if c.Gate.Name != from {
			continue
		}
		if n < 0 || seen == n {
			c.Gate = to
			changed = true
		}
		seen++
	}
	return changed
}

// The word-parallel fallback must report what the per-vector reference
// reports — verdict, failing output, counterexample and vector count — on
// clean mappings and on planted defects, including vector counts that
// leave the last word partly filled.
func TestSimMatchesReference(t *testing.T) {
	lib := library.Big()
	type variant struct {
		name  string
		plant func(*netlist.Netlist) bool
	}
	variants := []variant{
		{"clean", func(*netlist.Netlist) bool { return true }},
		{"inv->buf", func(nl *netlist.Netlist) bool { return swapGate(nl, "inv", lib.Buf, -1) }},
	}
	for i := 0; i < 6; i++ {
		variants = append(variants, variant{fmt.Sprintf("nand2->nor2#%d", i),
			func(nl *netlist.Netlist) bool { return swapGate(nl, "nand2", lib.GateByName("nor2"), i) }})
	}
	failures := 0
	for _, circuit := range []string{"C432", "misex1"} {
		for _, v := range variants {
			for _, vectors := range []int{256, 1, 63, 100, 1000} {
				src, nl := mapped(t, circuit)
				if !v.plant(nl) {
					continue
				}
				opt := Options{MaxBDDNodes: 50, SimVectors: vectors, Seed: 1}
				got, err := Check(src, nl, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := checkSimRef(src, nl, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s %d vectors: got %+v, reference %+v", circuit, v.name, vectors, got, want)
				}
				if !want.Equivalent {
					failures++
				}
			}
		}
	}
	if failures == 0 {
		t.Error("no planted defect was caught, so failing-vector reporting went untested")
	}
}

// Package match implements DAGON-style structural matching: it finds every
// way a library gate's pattern graph can cover a region of the NAND2/INV
// subject graph rooted at a given node (paper §2). The mappers (packages
// mis and core) turn these matches into covers by dynamic programming.
package match

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"lily/internal/decomp"
	"lily/internal/library"
	"lily/internal/logic"
)

// NodeType classifies subject-graph nodes for fast matching.
type NodeType byte

const (
	// TypeOther marks nodes that are neither base functions nor PIs.
	TypeOther NodeType = iota
	// TypePI marks primary inputs.
	TypePI
	// TypeNand2 marks 2-input NAND base nodes.
	TypeNand2
	// TypeInv marks inverter base nodes.
	TypeInv
)

// Classifier caches the node type of every subject-graph node.
type Classifier struct {
	types []NodeType
}

// Classify computes node types for the network. The network must be a
// subject graph (only NAND2/INV logic nodes); other nodes are marked
// TypeOther and never match.
func Classify(net *logic.Network) *Classifier {
	c := &Classifier{types: make([]NodeType, len(net.Nodes))}
	for id, nd := range net.Nodes {
		if nd == nil {
			continue
		}
		switch {
		case nd.Kind == logic.KindPI:
			c.types[id] = TypePI
		case decomp.IsNand2(net, logic.NodeID(id)):
			c.types[id] = TypeNand2
		case decomp.IsInv(net, logic.NodeID(id)):
			c.types[id] = TypeInv
		default:
			c.types[id] = TypeOther
		}
	}
	return c
}

// Type returns the cached node type.
func (c *Classifier) Type(id logic.NodeID) NodeType { return c.types[id] }

// Match is one way to implement the subject node at the root of its
// Merged list with a library gate. Its one ID list holds the input
// binding followed by the merged nodes, so a match costs a gate pointer
// and a slice header; the matchers cut every match of a node from one
// shared backing.
type Match struct {
	Gate *library.Gate
	// ids is Inputs() followed by Merged().
	ids []logic.NodeID
}

// NewMatch returns the match of gate g whose ID list ids holds the
// g.NumInputs input bindings followed by the merged nodes, root first.
// The match aliases ids, which must not change afterwards.
func NewMatch(g *library.Gate, ids []logic.NodeID) Match {
	if len(ids) <= g.NumInputs {
		panic(fmt.Sprintf("match: %s needs %d inputs and a root, got %d IDs", g.Name, g.NumInputs, len(ids)))
	}
	return Match{Gate: g, ids: ids}
}

// Inputs lists the subject nodes bound to each gate input pin
// (positional; these are the paper's inputs(v, m)).
func (m *Match) Inputs() []logic.NodeID {
	n := m.Gate.NumInputs
	return m.ids[:n:n]
}

// Merged lists the subject nodes covered by the pattern's internal
// NAND2/INV nodes, root first (the paper's merged(v, m) including v).
func (m *Match) Merged() []logic.NodeID { return m.ids[m.Gate.NumInputs:] }

// Root returns the subject node the match implements.
func (m *Match) Root() logic.NodeID { return m.ids[m.Gate.NumInputs] }

func (m *Match) String() string {
	return fmt.Sprintf("%s@%d inputs=%v merged=%v", m.Gate.Name, m.Root(), m.Inputs(), m.Merged())
}

// Matcher enumerates matches over one subject graph. AtNode memoizes
// each node's match list: the subject graph is immutable for the
// lifetime of a cover run (only node lifecycle state changes, which
// matching never reads), so a mapper that revisits nodes computes each
// list exactly once. Enumerate serves a mapper that reads each list once.
type Matcher struct {
	net *logic.Network
	cls *Classifier
	// gates is the library's gate list in name order. AtNode's output is
	// ordered by (gate name, binding), so visiting gates in this order
	// leaves only each gate's own candidates to sort.
	gates []*library.Gate

	// scratch state for the backtracking search
	bind   []logic.NodeID
	merged []logic.NodeID
	// mergedStamp implements an O(1)-clear membership set: node v is in
	// the current pattern interior iff mergedStamp[v] == stamp.
	mergedStamp []uint32
	stamp       uint32
	// gate is the gate whose patterns the search is embedding; accept is
	// the search's continuation, mt.acceptBinding bound once.
	gate   *library.Gate
	accept func()
	// cand and ids gather one node's distinct candidates: candidate c
	// binds ids[c.at:c.at+NumInputs] and merges the c.merged IDs after
	// them. Both are reused across nodes; atNode copies the finished
	// list out at exact size, and Enumerate returns it in scratch.
	cand    []candidate
	ids     []logic.NodeID
	scratch []Match

	// memo holds the per-node AtNode results; memoOK marks computed
	// entries (a nil slice is a valid result for unmatchable nodes).
	memo   [][]Match
	memoOK []bool
}

// candidate is one match under construction, addressed into Matcher.ids.
type candidate struct {
	gate       *library.Gate
	at, merged int
}

// NewMatcher builds a matcher for the subject graph.
func NewMatcher(net *logic.Network, lib *library.Library) *Matcher {
	n := len(net.Nodes)
	mt := &Matcher{
		net:         net,
		cls:         Classify(net),
		gates:       slices.Clone(lib.Gates),
		mergedStamp: make([]uint32, n),
		memo:        make([][]Match, n),
		memoOK:      make([]bool, n),
	}
	slices.SortStableFunc(mt.gates, func(a, b *library.Gate) int { return strings.Compare(a.Name, b.Name) })
	mt.accept = mt.acceptBinding
	return mt
}

// Classifier exposes the matcher's node classification.
func (mt *Matcher) Classifier() *Classifier { return mt.cls }

// AtNode returns all distinct matches rooted at subject node v, across every
// gate and pattern of the library. Matches are deduplicated by (gate,
// bound inputs) and returned in a deterministic order. Results are memoized;
// callers must treat the returned slice as read-only.
func (mt *Matcher) AtNode(v logic.NodeID) []Match {
	if mt.memoOK[v] {
		return mt.memo[v]
	}
	out := mt.atNode(v)
	mt.memo[v] = out
	mt.memoOK[v] = true
	return out
}

// atNode copies v's enumerated matches out: one Match slab and one
// shared ID backing, whatever the match count.
func (mt *Matcher) atNode(v logic.NodeID) []Match {
	mt.enumerate(v)
	if len(mt.cand) == 0 {
		return nil
	}
	out := make([]Match, len(mt.cand))
	mt.fill(out, slices.Clone(mt.ids))
	return out
}

// Enumerate returns the matches AtNode returns for v, in the same order,
// without memoizing them: the slice and the matches' IDs live in the
// matcher's scratch and stay valid only until the next Enumerate or
// AtNode call. Once the scratch has grown it allocates nothing, so a
// mapper that reads each node's candidates once keeps only the matches
// it chooses, copied out.
func (mt *Matcher) Enumerate(v logic.NodeID) []Match {
	mt.enumerate(v)
	if len(mt.cand) == 0 {
		return nil
	}
	mt.scratch = slices.Grow(mt.scratch[:0], len(mt.cand))[:len(mt.cand)]
	mt.fill(mt.scratch, mt.ids)
	return mt.scratch
}

// fill sets out[i] to candidate i, cut from the ID backing ids.
func (mt *Matcher) fill(out []Match, ids []logic.NodeID) {
	for i, c := range mt.cand {
		end := c.at + c.gate.NumInputs + c.merged
		out[i] = Match{Gate: c.gate, ids: ids[c.at:end:end]}
	}
}

// enumerate gathers v's distinct matches into the scratch candidate
// list, one gate at a time in name order, sorting each gate's
// candidates by binding.
func (mt *Matcher) enumerate(v logic.NodeID) {
	mt.cand = mt.cand[:0]
	mt.ids = mt.ids[:0]
	if t := mt.cls.Type(v); t != TypeNand2 && t != TypeInv {
		return
	}
	for _, g := range mt.gates {
		first := len(mt.cand)
		mt.gate = g
		for _, p := range g.Patterns {
			if cap(mt.bind) < g.NumInputs {
				mt.bind = make([]logic.NodeID, g.NumInputs)
			}
			mt.bind = mt.bind[:g.NumInputs]
			for i := range mt.bind {
				mt.bind[i] = logic.InvalidNode
			}
			mt.merged = mt.merged[:0]
			mt.clearMerged()
			mt.match(v, p.Root, mt.accept)
		}
		if own := mt.cand[first:]; len(own) > 1 {
			slices.SortFunc(own, func(a, b candidate) int {
				return compareBindings(mt.inputs(a), mt.inputs(b))
			})
		}
	}
}

// inputs returns a scratch candidate's input binding.
func (mt *Matcher) inputs(c candidate) []logic.NodeID {
	return mt.ids[c.at : c.at+c.gate.NumInputs]
}

// acceptBinding records the search's current embedding of mt.gate as a
// candidate, unless it is invalid or repeats an earlier binding.
func (mt *Matcher) acceptBinding() {
	// A gate input must be a signal that survives outside the match:
	// reject bindings where a pin lands on a node the pattern interior
	// consumed.
	for _, b := range mt.bind {
		if mt.inMerged(b) {
			return
		}
	}
	// Deduplicate by (gate, bound inputs): the gate's own candidates are
	// the tail of the list. First occurrence wins.
	for i := len(mt.cand) - 1; i >= 0 && mt.cand[i].gate == mt.gate; i-- {
		if equalIDs(mt.inputs(mt.cand[i]), mt.bind) {
			return
		}
	}
	at := len(mt.ids)
	mt.ids = append(mt.ids, mt.bind...)
	mt.ids = append(mt.ids, mt.merged...)
	mt.cand = append(mt.cand, candidate{gate: mt.gate, at: at, merged: len(mt.merged)})
}

func equalIDs(a, b []logic.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareBindings orders two equal-length input bindings exactly as the
// historical fmt-rendered match key ("gate:[12 34]") did: element-wise,
// each ID compared as its decimal string followed by the separator the
// rendering would emit (' ' between elements, ']' after the last). The
// decimal-string order differs from numeric order (e.g. "10" < "9"), and
// the DP breaks cost ties by match-list position, so preserving it keeps
// mapped output byte-identical to the string-keyed implementation. It
// works on the integers directly and never allocates.
func compareBindings(a, b []logic.NodeID) int {
	for i := range a {
		if a[i] != b[i] {
			return compareDecimal(int64(a[i]), int64(b[i]), i == len(a)-1)
		}
	}
	return 0
}

// pow10 holds 10^0 … 10^19, every power of ten a uint64 can hold.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// numDigits returns the length of x's decimal rendering.
func numDigits(x uint64) int {
	n := 1
	for n < len(pow10) && x >= pow10[n] {
		n++
	}
	return n
}

// compareDecimal compares two distinct IDs as their decimal strings
// followed by the separator (' ' mid-binding, ']' on the last element).
// A minus sign sorts before every digit; between two negatives the equal
// signs drop out and the magnitudes compare as digit strings. Equal-length
// digit strings compare numerically; otherwise the longer one's leading
// digits compare against the shorter, and on a proper prefix the shorter
// string's separator meets a digit: ' ' sorts before it, ']' after it.
func compareDecimal(x, y int64, last bool) int {
	if (x < 0) != (y < 0) {
		if x < 0 {
			return -1
		}
		return 1
	}
	mx, my := uint64(x), uint64(y)
	if x < 0 {
		mx, my = uint64(-x), uint64(-y) // two's complement: exact even for MinInt64
	}
	nx, ny := numDigits(mx), numDigits(my)
	switch {
	case nx < ny:
		if c := cmp.Compare(mx, my/pow10[ny-nx]); c != 0 {
			return c
		}
		if last {
			return 1
		}
		return -1
	case nx > ny:
		if c := cmp.Compare(mx/pow10[nx-ny], my); c != 0 {
			return c
		}
		if last {
			return -1
		}
		return 1
	}
	return cmp.Compare(mx, my)
}

// match attempts to embed pattern node p at subject node v, invoking cont
// for every consistent embedding. Internal pattern nodes must map to
// distinct subject nodes; a leaf binds any subject node (including one
// outside the pattern interior).
func (mt *Matcher) match(v logic.NodeID, p *library.PatternNode, cont func()) {
	switch p.Op {
	case library.OpLeaf:
		switch mt.bind[p.Pin] {
		case logic.InvalidNode:
			mt.bind[p.Pin] = v
			cont()
			mt.bind[p.Pin] = logic.InvalidNode
		case v:
			cont()
		}
	case library.OpInv:
		if mt.cls.Type(v) != TypeInv || mt.inMerged(v) {
			return
		}
		mt.pushMerged(v)
		mt.match(mt.net.Nodes[v].Fanins[0], p.Kids[0], cont)
		mt.popMerged(v)
	case library.OpNand2:
		if mt.cls.Type(v) != TypeNand2 || mt.inMerged(v) {
			return
		}
		mt.pushMerged(v)
		f := mt.net.Nodes[v].Fanins
		mt.match(f[0], p.Kids[0], func() {
			mt.match(f[1], p.Kids[1], cont)
		})
		if f[0] != f[1] {
			// NAND is commutative: also try the swapped assignment.
			mt.match(f[1], p.Kids[0], func() {
				mt.match(f[0], p.Kids[1], cont)
			})
		}
		mt.popMerged(v)
	}
}

// inMerged reports whether v is inside the pattern interior being built.
// Leaf bindings may be logic.InvalidNode (-1) before a pin is bound; the
// stamp array is indexed by node ID, so guard the sentinel explicitly.
func (mt *Matcher) inMerged(v logic.NodeID) bool {
	return v >= 0 && mt.mergedStamp[v] == mt.stamp
}

// clearMerged empties the interior set in O(1) by advancing the stamp.
func (mt *Matcher) clearMerged() {
	mt.stamp++
	if mt.stamp == 0 { // wrapped: reset the backing array once per 2^32 clears
		for i := range mt.mergedStamp {
			mt.mergedStamp[i] = 0
		}
		mt.stamp = 1
	}
}

func (mt *Matcher) pushMerged(v logic.NodeID) {
	mt.merged = append(mt.merged, v)
	mt.mergedStamp[v] = mt.stamp
}

func (mt *Matcher) popMerged(v logic.NodeID) {
	mt.merged = mt.merged[:len(mt.merged)-1]
	mt.mergedStamp[v] = mt.stamp - 1
}

// InternalFanoutFree reports whether every non-root merged node of the
// match fans out only inside the match — the DAGON tree-covering condition.
// Cone-based covering (MIS, Lily) admits matches that violate it at the
// price of logic duplication.
func InternalFanoutFree(net *logic.Network, m *Match) bool {
	merged := m.Merged()
	inside := make(map[logic.NodeID]bool, len(merged))
	for _, id := range merged {
		inside[id] = true
	}
	for _, id := range merged[1:] { // skip root
		if net.IsPO(id) {
			return false
		}
		for _, fo := range net.Fanouts(id) {
			if !inside[fo] {
				return false
			}
		}
	}
	return true
}

// Verify checks a match functionally: the gate's truth-word row for the
// bound input values must equal the subject root's value for every
// assignment of the inputs. Only tests call it.
func Verify(net *logic.Network, m *Match) error {
	// The match region forms a tree from inputs to root; evaluate the
	// subject nodes in the region for all 2^k input assignments.
	inputs := m.Inputs()
	k := len(inputs)
	// Topological order of region nodes (root first in Merged, so reverse).
	val := make(map[logic.NodeID]bool, len(m.Merged())+k)
	var evalNode func(id logic.NodeID) bool
	evalNode = func(id logic.NodeID) bool {
		if v, ok := val[id]; ok {
			return v
		}
		nd := net.Nodes[id]
		ins := make([]bool, len(nd.Fanins))
		for i, f := range nd.Fanins {
			ins[i] = evalNode(f)
		}
		v := nd.Cover.Eval(ins)
		val[id] = v
		return v
	}
	pins := make([]bool, k)
	for r := 0; r < 1<<k; r++ {
		for id := range val {
			delete(val, id)
		}
		consistent := true
		for i, in := range inputs {
			pins[i] = r&(1<<i) != 0
			if prev, ok := val[in]; ok && prev != pins[i] {
				// Two pins bound to the same subject signal: only
				// assignments giving them equal values are realizable.
				consistent = false
				break
			}
			val[in] = pins[i]
		}
		if !consistent {
			continue
		}
		want := evalNode(m.Root())
		got := m.Gate.Truth>>r&1 == 1
		if got != want {
			return fmt.Errorf("match %s: gate says %v, subject says %v for pins %v",
				m, got, want, pins)
		}
	}
	return nil
}

// MatchesAt makes Matcher a covering-engine backend (core.Backend): it
// is AtNode under the interface's name.
func (mt *Matcher) MatchesAt(v logic.NodeID) []Match { return mt.AtNode(v) }

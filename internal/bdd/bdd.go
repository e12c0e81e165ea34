// Package bdd is a reduced ordered binary decision diagram engine used for
// formal equivalence checking between the source Boolean network and the
// mapped netlist. It is deliberately small: a unique table for canonicity,
// an ITE computed cache, and a node budget that turns exponential blowup
// into a clean "unknown" answer the caller can fall back from (package
// equiv then resorts to randomized simulation).
//
// Both tables are flat arrays in the Brace–Rudell–Bryant layout. The
// unique table is open-addressed over node indices and doubles as it
// fills. The computed cache is direct-mapped, sized from the node count,
// and may lose entries to collisions. Nodes are never freed, so a cached
// result is never stale, and a lost entry only costs a recomputation that
// finds every node it needs already in the unique table: node numbering,
// NumNodes and the operation that hits the budget do not depend on what
// the cache happened to keep.
package bdd

import (
	"errors"
	"fmt"
	"math"
)

// Ref is a node reference. The constants False and True are always valid.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

// limitRef is the internal ITE result for a budget failure; it is never a
// valid node index.
const limitRef Ref = -1

// ErrNodeLimit is returned when a build exceeds the manager's node budget.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

type node struct {
	level  int32 // variable index; terminals live at level numVars
	lo, hi Ref
}

// cacheEntry is one computed-cache slot: ITE(f, g, h) = r. A zero f marks
// an empty slot; it never matches because ITE with a terminal f returns
// before the cache is consulted.
type cacheEntry struct {
	f, g, h, r Ref
}

// minTable is the initial unique-table length (a power of two).
const minTable = 1 << 10

// Manager owns the node store for one variable ordering.
type Manager struct {
	numVars  int
	maxNodes int
	nodes    []node
	// unique holds node indices under linear probing; 0 marks an empty
	// slot (terminals are never entered). Its length is a power of two at
	// least twice the node count.
	unique []Ref
	// cache is the direct-mapped ITE computed table, half the unique
	// table's length.
	cache []cacheEntry
}

// New creates a manager over numVars variables with the given node budget
// (0 means one million nodes).
func New(numVars, maxNodes int) *Manager { return newSized(numVars, maxNodes, minTable) }

// newSized is New with the initial unique-table length (a power of two,
// at least 4) given.
func newSized(numVars, maxNodes, table int) *Manager {
	if maxNodes <= 0 {
		maxNodes = 1_000_000
	}
	m := &Manager{
		numVars:  numVars,
		maxNodes: maxNodes,
		unique:   make([]Ref, table),
		cache:    make([]cacheEntry, table/2),
	}
	m.nodes = make([]node, 2, m.nodeCap())
	term := int32(numVars)
	m.nodes[0] = node{level: term}
	m.nodes[1] = node{level: term}
	return m
}

// nodeCap is the node array's capacity for the current unique table.
// mk grows the table as soon as the node count passes half its length,
// so the count never exceeds half the length plus one, nor the budget
// (nor two, the terminals): the array is reallocated only in grow, in
// lockstep with the table.
func (m *Manager) nodeCap() int { return min(len(m.unique)/2+1, max(m.maxNodes, 2)) }

// NumNodes returns the number of live nodes including terminals.
func (m *Manager) NumNodes() int { return len(m.nodes) }

// Var returns the BDD of variable i.
func (m *Manager) Var(i int) (Ref, error) {
	if i < 0 || i >= m.numVars {
		return False, fmt.Errorf("bdd: variable %d out of range [0,%d)", i, m.numVars)
	}
	return result(m.mk(int32(i), False, True))
}

func result(r Ref) (Ref, error) {
	if r == limitRef {
		return False, ErrNodeLimit
	}
	return r, nil
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// hash3 mixes a triple into 64 bits. Callers keep the low bits as a table
// index; the final fold brings the well-mixed high bits down into them.
func hash3(a, b, c Ref) uint64 {
	h := uint64(uint32(a))*0x9e3779b97f4a7c15 ^ uint64(uint32(b))*0xc2b2ae3d27d4eb4f ^ uint64(uint32(c))*0x165667b19e3779f9
	return h ^ h>>32
}

func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	mask := uint64(len(m.unique) - 1)
	i := hash3(Ref(level), lo, hi) & mask
	for {
		r := m.unique[i]
		if r == 0 {
			break
		}
		if n := &m.nodes[r]; n.lo == lo && n.hi == hi && n.level == level {
			return r
		}
		i = (i + 1) & mask
	}
	if len(m.nodes) >= m.maxNodes {
		return limitRef
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	m.unique[i] = r
	if 2*len(m.nodes) > len(m.unique) {
		m.grow()
	}
	return r
}

// grow doubles the unique table, the node array's capacity and the
// computed cache. Nodes are re-entered in index order; cached results
// move to their new slots.
func (m *Manager) grow() {
	unique := make([]Ref, 2*len(m.unique))
	mask := uint64(len(unique) - 1)
	for r := 2; r < len(m.nodes); r++ {
		n := &m.nodes[r]
		i := hash3(Ref(n.level), n.lo, n.hi) & mask
		for unique[i] != 0 {
			i = (i + 1) & mask
		}
		unique[i] = Ref(r)
	}
	m.unique = unique
	nodes := make([]node, len(m.nodes), m.nodeCap())
	copy(nodes, m.nodes)
	m.nodes = nodes
	cache := make([]cacheEntry, len(unique)/2)
	cmask := uint64(len(cache) - 1)
	for _, e := range m.cache {
		if e.f != 0 {
			cache[hash3(e.f, e.g, e.h)&cmask] = e
		}
	}
	m.cache = cache
}

// ITE computes if-then-else(f, g, h), the universal BDD operation.
func (m *Manager) ITE(f, g, h Ref) (Ref, error) { return result(m.ite(f, g, h)) }

// ite is ITE without the error value: limitRef reports a budget failure.
func (m *Manager) ite(f, g, h Ref) Ref {
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	hk := hash3(f, g, h)
	if e := &m.cache[hk&uint64(len(m.cache)-1)]; e.f == f && e.g == g && e.h == h {
		return e.r
	}
	nf, ng, nh := m.nodes[f], m.nodes[g], m.nodes[h]
	top := min(nf.level, ng.level, nh.level)
	f0, f1 := cofactors(f, nf, top)
	g0, g1 := cofactors(g, ng, top)
	h0, h1 := cofactors(h, nh, top)
	lo := m.ite(f0, g0, h0)
	if lo == limitRef {
		return limitRef
	}
	hi := m.ite(f1, g1, h1)
	if hi == limitRef {
		return limitRef
	}
	r := m.mk(top, lo, hi)
	if r == limitRef {
		return limitRef
	}
	// The cache may have grown during the recursion: index it afresh.
	m.cache[hk&uint64(len(m.cache)-1)] = cacheEntry{f, g, h, r}
	return r
}

func cofactors(r Ref, n node, level int32) (lo, hi Ref) {
	if n.level != level {
		return r, r
	}
	return n.lo, n.hi
}

// Not returns the complement.
func (m *Manager) Not(a Ref) (Ref, error) { return m.ITE(a, False, True) }

// And returns the conjunction.
func (m *Manager) And(a, b Ref) (Ref, error) { return m.ITE(a, b, False) }

// Or returns the disjunction.
func (m *Manager) Or(a, b Ref) (Ref, error) { return m.ITE(a, True, b) }

// Xor returns the exclusive or.
func (m *Manager) Xor(a, b Ref) (Ref, error) {
	nb, err := m.Not(b)
	if err != nil {
		return False, err
	}
	return m.ITE(a, nb, b)
}

// Eval evaluates the function under a full variable assignment.
func (m *Manager) Eval(r Ref, assign []bool) bool {
	for r != True && r != False {
		n := m.nodes[r]
		if assign[n.level] {
			r = n.hi
		} else {
			r = n.lo
		}
	}
	return r == True
}

// SatCount returns the number of satisfying assignments over all
// variables (as float64; exact for < 2^53).
func (m *Manager) SatCount(r Ref) float64 {
	memo := make(map[Ref]float64)
	var count func(r Ref) float64 // assignments below r's level
	count = func(r Ref) float64 {
		if r == False {
			return 0
		}
		if r == True {
			return 1
		}
		if v, ok := memo[r]; ok {
			return v
		}
		n := m.nodes[r]
		lo := count(n.lo) * math.Pow(2, float64(m.level(n.lo)-n.level-1))
		hi := count(n.hi) * math.Pow(2, float64(m.level(n.hi)-n.level-1))
		v := lo + hi
		memo[r] = v
		return v
	}
	return count(r) * math.Pow(2, float64(m.level(r)))
}

// AnySatisfying returns one satisfying assignment, or nil for False.
func (m *Manager) AnySatisfying(r Ref) []bool {
	if r == False {
		return nil
	}
	assign := make([]bool, m.numVars)
	for r != True {
		n := m.nodes[r]
		if n.hi != False {
			assign[n.level] = true
			r = n.hi
		} else {
			r = n.lo
		}
	}
	return assign
}

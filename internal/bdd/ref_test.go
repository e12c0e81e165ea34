package bdd

// refManager is the straightforward map-based manager: a Go map as the
// unique table and an unbounded Go map as the ITE cache. It serves only
// as the reference the table-based Manager is checked against, operation
// by operation.
type refManager struct {
	numVars  int
	maxNodes int
	nodes    []node
	unique   map[[3]int32]Ref
	iteCache map[[3]Ref]Ref
}

func newRef(numVars, maxNodes int) *refManager {
	if maxNodes <= 0 {
		maxNodes = 1_000_000
	}
	m := &refManager{
		numVars:  numVars,
		maxNodes: maxNodes,
		unique:   make(map[[3]int32]Ref),
		iteCache: make(map[[3]Ref]Ref),
	}
	term := int32(numVars)
	m.nodes = append(m.nodes, node{level: term}, node{level: term})
	return m
}

func (m *refManager) NumNodes() int { return len(m.nodes) }

func (m *refManager) Var(i int) (Ref, error) { return m.mk(int32(i), False, True) }

func (m *refManager) mk(level int32, lo, hi Ref) (Ref, error) {
	if lo == hi {
		return lo, nil
	}
	key := [3]int32{level, int32(lo), int32(hi)}
	if r, ok := m.unique[key]; ok {
		return r, nil
	}
	if len(m.nodes) >= m.maxNodes {
		return False, ErrNodeLimit
	}
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	r := Ref(len(m.nodes) - 1)
	m.unique[key] = r
	return r, nil
}

func (m *refManager) ITE(f, g, h Ref) (Ref, error) {
	switch {
	case f == True:
		return g, nil
	case f == False:
		return h, nil
	case g == h:
		return g, nil
	case g == True && h == False:
		return f, nil
	}
	key := [3]Ref{f, g, h}
	if r, ok := m.iteCache[key]; ok {
		return r, nil
	}
	top := m.nodes[f].level
	if l := m.nodes[g].level; l < top {
		top = l
	}
	if l := m.nodes[h].level; l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo, err := m.ITE(f0, g0, h0)
	if err != nil {
		return False, err
	}
	hi, err := m.ITE(f1, g1, h1)
	if err != nil {
		return False, err
	}
	r, err := m.mk(top, lo, hi)
	if err != nil {
		return False, err
	}
	m.iteCache[key] = r
	return r, nil
}

func (m *refManager) cofactors(r Ref, level int32) (lo, hi Ref) {
	n := m.nodes[r]
	if n.level != level {
		return r, r
	}
	return n.lo, n.hi
}

func (m *refManager) Not(a Ref) (Ref, error)    { return m.ITE(a, False, True) }
func (m *refManager) And(a, b Ref) (Ref, error) { return m.ITE(a, b, False) }
func (m *refManager) Or(a, b Ref) (Ref, error)  { return m.ITE(a, True, b) }

func (m *refManager) Xor(a, b Ref) (Ref, error) {
	nb, err := m.Not(b)
	if err != nil {
		return False, err
	}
	return m.ITE(a, nb, b)
}

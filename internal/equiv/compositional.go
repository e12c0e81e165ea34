package equiv

import (
	"fmt"
	"math/bits"
	"strings"

	"lily/internal/bdd"
	"lily/internal/decomp"
	"lily/internal/logic"
	"lily/internal/netlist"
)

// Compositional proves the mapped netlist nl equivalent to src through
// the NAND2/INV subject graph pre that nl was covered from, one cone at
// a time, with every cut point a free variable:
//
//   - Premap: each live source node's cover, over the subject nodes
//     pre.Root gives its fanins, equals the subject cone under its own
//     root, cut at those fanin roots.
//   - Cover: each cell's truth word, over the subject nodes its inputs
//     stand for, equals the subject cone of the node it stands for, cut
//     at those input nodes.
//   - Wiring: the inputs of all three circuits are the same names, and
//     each output's netlist driver stands for pre.Root of its source node.
//
// A cell stands for the subject node it is named after (cover.BuildNetlist
// names every cell after its node). A cell whose name is no subject node
// and whose gate is a one-input identity, a fanout buffer, stands for its
// input's node. Names are hints only: every claim is checked, so a wrong
// or missing name can fail a local check but never yield a false proof.
// By induction in topological order each subject root then computes its
// source node's function, each cell its node's, and each netlist output
// its source output's.
//
// A cone of at most six variables is checked on one truth word. A wider
// premap cone, a source node with more fanins, gets its own BDD manager
// with the Shannon composer. A premap check that fails is repeated with
// its cut moved down the source network (premapNode), since free cut
// points lose the relations structural hashing creates between them.
// The cost is linear in the size of the three circuits. A local check
// that fails returns an error naming the cell or source node and its
// subject node; the netlist may still be equivalent (Prove then falls
// back to Check). On success the Result's method is MethodCompositional
// and BDDNodes the largest local BDD.
func Compositional(src *logic.Network, pre *decomp.Result, nl *netlist.Netlist) (*Result, error) {
	if err := sameInterfaces(src, nl, sortedPINames(src)); err != nil {
		return nil, err
	}
	sub := pre.Inchoate
	// Every claim below reads a subject node as a function of the inputs,
	// which holds only in an acyclic graph.
	if _, err := sub.TopoOrder(); err != nil {
		return nil, err
	}
	p := newCutProver(sub)
	if err := p.premap(src, pre.Root); err != nil {
		return nil, err
	}
	sig, err := p.cover(nl)
	if err != nil {
		return nil, err
	}
	driver := make(map[string]netlist.Ref, len(nl.POs))
	for _, po := range nl.POs {
		driver[po.Name] = po.Driver
	}
	for i, po := range src.POs {
		name := src.PONames[i]
		r, ok := pre.Root[po]
		if !ok {
			return nil, fmt.Errorf("equiv: output %q: source node %q has no subject root", name, src.Nodes[po].Name)
		}
		if d := driver[name]; sig.node(d) != r {
			return nil, fmt.Errorf("equiv: output %q: driver %q stands for subject node %q, want %q",
				name, sig.name(d), nodeName(sub, sig.node(d)), nodeName(sub, r))
		}
	}
	return &Result{Equivalent: true, Method: MethodCompositional, BDDNodes: p.peak}, nil
}

// Prove is the verification a mapping flow runs: Compositional, and
// where a local check fails, Check with the default options. A proof by
// either is an equivalent Result (MethodCompositional or MethodBDD) and a
// counterexample a non-equivalent one. It fails closed: a verdict that
// only simulation could reach is an error naming the cone the local proof
// failed at.
func Prove(src *logic.Network, pre *decomp.Result, nl *netlist.Netlist) (*Result, error) {
	res, local := Compositional(src, pre, nl)
	if local == nil {
		return res, nil
	}
	res, err := Check(src, nl, DefaultOptions())
	if err != nil {
		return nil, err
	}
	if res.Equivalent && res.Method == MethodSimulation {
		return nil, fmt.Errorf("%w; the BDD check ran out of budget, and %d random vectors prove nothing",
			local, res.Vectors)
	}
	return res, nil
}

func nodeName(sub *logic.Network, id logic.NodeID) string {
	if nd := sub.Node(id); nd != nil {
		return nd.Name
	}
	return "<none>"
}

// A cut-point literal is a variable index shifted left once, the low bit
// set for its complement. A node of a premap check's source cone carries
// litInner instead.
const litInner int32 = -1

// cutProver proves local identities over one subject graph: that the
// cone under a subject node, cut at a set of bound nodes, computes a
// given function of the literals bound there. Each check stamps the nodes
// it binds or walks with a fresh generation, so its scratch arrays are
// allocated once per graph.
type cutProver struct {
	sub   *logic.Network
	stamp []uint32
	gen   uint32
	// stamp[id] == gen marks a node bound or walked by the current check;
	// lit is the literal of a bound node.
	lit []int32
	// bound lists the current check's bound nodes and cone its cone's
	// nodes, fanins first.
	bound, cone []logic.NodeID
	vars        int
	// extra lets the walk bind a subject input outside the cut as one
	// more variable (premap cones read the first input for a constant);
	// without it such an input fails the check.
	extra bool
	word  []uint64
	ref   []bdd.Ref
	ins   []uint64
	// The premap checks' source side: the source network, its subject
	// roots, and per source node a stamp, a literal (a cut point) or
	// litInner (a node of the source cone) and the node's value.
	src    *logic.Network
	root   map[logic.NodeID]logic.NodeID
	sstamp []uint32
	slit   []int32
	sword  []uint64
	sref   []bdd.Ref
	// scone is the current premap check's source cone, fanins first; its
	// last node is the node under proof.
	scone []logic.NodeID
	// peak is the largest local BDD any check built.
	peak int
}

func newCutProver(sub *logic.Network) *cutProver {
	n := len(sub.Nodes)
	return &cutProver{sub: sub, stamp: make([]uint32, n), lit: make([]int32, n), word: make([]uint64, n)}
}

// begin starts a check.
func (p *cutProver) begin(extra bool) {
	p.gen++
	p.bound, p.cone = p.bound[:0], p.cone[:0]
	p.vars = 0
	p.extra = extra
}

// bind gives subject node id a variable unless it has one, and returns
// its literal. An invalid id (a source fanin with no subject node) gets a
// variable no node carries.
func (p *cutProver) bind(id logic.NodeID) int32 {
	if id != logic.InvalidNode {
		if p.stamp[id] == p.gen {
			return p.lit[id]
		}
		p.stamp[id] = p.gen
		p.lit[id] = int32(p.vars) << 1
		p.bound = append(p.bound, id)
	}
	p.vars++
	return int32(p.vars-1) << 1
}

// bindRoot binds the subject root l of a source node. An inverter root
// is bound as the complement of its input, which keeps the one relation
// between cut points the premap builds everywhere: the premap collapses
// double inversions, so a tree that wants NOT l reads l's input, and a
// node's fanins may hold both a signal and its inverter.
func (p *cutProver) bindRoot(l logic.NodeID) int32 {
	if p.stamp[l] == p.gen || !decomp.IsInv(p.sub, l) {
		return p.bind(l)
	}
	lit := p.bind(p.sub.Nodes[l].Fanins[0]) ^ 1
	p.stamp[l] = p.gen
	p.lit[l] = lit
	p.bound = append(p.bound, l)
	return lit
}

// walk collects the cone under id down to the bound nodes, fanins first.
func (p *cutProver) walk(id logic.NodeID) error {
	if p.stamp[id] == p.gen {
		return nil
	}
	nd := p.sub.Nodes[id]
	if nd.Kind == logic.KindPI {
		if !p.extra {
			return fmt.Errorf("cone escapes its inputs at subject input %q", nd.Name)
		}
		p.bind(id)
		return nil
	}
	p.stamp[id] = p.gen
	for _, f := range nd.Fanins {
		if err := p.walk(f); err != nil {
			return err
		}
	}
	p.cone = append(p.cone, id)
	return nil
}

// litWord is literal l's truth word; the check has at most six variables.
func litWord(l int32) uint64 { return logic.VarTT[l>>1] ^ -uint64(l&1) }

// words evaluates the cone on one truth word per node and returns root's.
func (p *cutProver) words(root logic.NodeID) uint64 {
	for _, id := range p.bound {
		p.word[id] = litWord(p.lit[id])
	}
	for _, id := range p.cone {
		nd := p.sub.Nodes[id]
		p.ins = p.ins[:0]
		for _, f := range nd.Fanins {
			p.ins = append(p.ins, p.word[f])
		}
		p.word[id] = nd.Cover.EvalWords(p.ins)
	}
	return p.word[root]
}

// bdds composes the cone in c's manager, whose variables are the
// check's, and returns root's BDD.
func (p *cutProver) bdds(root logic.NodeID, c *composer) (bdd.Ref, error) {
	if p.ref == nil {
		p.ref = make([]bdd.Ref, len(p.sub.Nodes))
	}
	for _, id := range p.bound {
		r, err := litRef(c.m, p.lit[id])
		if err != nil {
			return bdd.False, err
		}
		p.ref[id] = r
	}
	var ins []bdd.Ref
	for _, id := range p.cone {
		nd := p.sub.Nodes[id]
		ins = ins[:0]
		for _, f := range nd.Fanins {
			ins = append(ins, p.ref[f])
		}
		r, err := c.cover(nd.Cover, ins)
		if err != nil {
			return bdd.False, err
		}
		p.ref[id] = r
	}
	return p.ref[root], nil
}

func litRef(m *bdd.Manager, l int32) (bdd.Ref, error) {
	v, err := m.Var(int(l >> 1))
	if err != nil || l&1 == 0 {
		return v, err
	}
	return m.Not(v)
}

// premap proves every live source node's subject tree, in topological
// order, so each tree's cut points are proved before it.
func (p *cutProver) premap(src *logic.Network, root map[logic.NodeID]logic.NodeID) error {
	order, err := src.TopoOrder()
	if err != nil {
		return err
	}
	p.src, p.root = src, root
	n := len(src.Nodes)
	p.sstamp, p.slit, p.sword = make([]uint32, n), make([]int32, n), make([]uint64, n)
	for _, id := range order {
		nd := src.Nodes[id]
		r, live := root[id]
		if !live {
			continue
		}
		if p.sub.Node(r) == nil {
			return fmt.Errorf("equiv: source node %q: subject root %d is not in the subject graph", nd.Name, r)
		}
		if nd.Kind == logic.KindPI {
			if sn := p.sub.Nodes[r]; sn.Kind != logic.KindPI || sn.Name != nd.Name {
				return fmt.Errorf("equiv: source input %q: subject root %q is not the input of that name", nd.Name, sn.Name)
			}
			continue
		}
		if err := p.premapNode(nd, r); err != nil {
			return fmt.Errorf("equiv: source node %q (subject node %q): %w", nd.Name, p.sub.Nodes[r].Name, err)
		}
	}
	return nil
}

// maxCutDepth bounds how many levels below its fanins a premap check
// moves its cut before it fails.
const maxCutDepth = 3

// premapNode proves that the subject cone under r computes source node
// nd's cover, cutting ever deeper (see premapCut) until the check holds.
func (p *cutProver) premapNode(nd *logic.Node, r logic.NodeID) error {
	for depth := 0; depth <= maxCutDepth; depth++ {
		if same, err := p.premapCut(nd, r, depth); same || err != nil {
			return err
		}
	}
	return fmt.Errorf("its tree computes a different function of its fanins' subject roots, cut at them or up to %d levels below", maxCutDepth)
}

// premapCut reports whether the subject cone under r computes source
// node nd's cover over the subject roots of its fanins, all cut points
// free variables. Free cut points lose the relations between them: when
// structural hashing makes one fanin's root part of another's tree, or r
// itself, the identity holds only through that relation. At depth d > 0
// the cut moves d levels down: a logic fanin is then its own cover over
// the roots of its fanins (proved already), and the walk from r passes
// through its root to those.
func (p *cutProver) premapCut(nd *logic.Node, r logic.NodeID, depth int) (bool, error) {
	p.begin(true)
	p.scone = p.scone[:0]
	p.cut(nd, depth)
	if err := p.walk(r); err != nil {
		return false, err
	}
	if p.vars <= len(logic.VarTT) {
		return p.words(r) == p.srcWords(), nil
	}
	budget := DefaultOptions().MaxBDDNodes
	c := &composer{m: bdd.New(p.vars, budget), budget: budget}
	got, err := p.bdds(r, c)
	if err != nil {
		return false, err
	}
	want, err := p.srcBDDs(c)
	if err != nil {
		return false, err
	}
	p.peak = max(p.peak, c.m.NumNodes())
	return got == want, nil
}

// cut binds the subject roots of the fanins nd's cover reads and appends
// nd to the source cone. A fanin with no subject root is a node whose
// every reader took its complement, which the premap's double-inversion
// collapse then read without the root, so sweeping removed the root: its
// own fanins are cut instead and it joins the cone. Above depth 0 every
// logic fanin is treated so, its fanins one level shallower.
func (p *cutProver) cut(nd *logic.Node, depth int) {
	for i, f := range nd.Fanins {
		if p.sstamp[f] == p.gen || !nd.Cover.DependsOn(i) {
			continue
		}
		p.sstamp[f] = p.gen
		fn := p.src.Nodes[f]
		r, rooted := p.root[f]
		switch {
		case rooted && (depth == 0 || fn.Kind == logic.KindPI):
			p.slit[f] = p.bindRoot(r)
		case fn.Kind == logic.KindPI:
			p.slit[f] = p.bind(logic.InvalidNode)
		case rooted:
			p.slit[f] = litInner
			p.cut(fn, depth-1)
		default:
			p.slit[f] = litInner
			p.cut(fn, depth)
		}
	}
	p.scone = append(p.scone, nd.ID)
}

// srcWords evaluates the source cone on truth words and returns the
// value of its last node, the node under proof. A fanin no cover of the
// cone reads gets 0.
func (p *cutProver) srcWords() uint64 {
	var w uint64
	for _, id := range p.scone {
		nd := p.src.Nodes[id]
		p.ins = p.ins[:0]
		for _, f := range nd.Fanins {
			var in uint64
			if p.sstamp[f] == p.gen {
				if l := p.slit[f]; l >= 0 {
					in = litWord(l)
				} else {
					in = p.sword[f]
				}
			}
			p.ins = append(p.ins, in)
		}
		w = nd.Cover.EvalWords(p.ins)
		p.sword[id] = w
	}
	return w
}

// srcBDDs is srcWords on BDDs in c's manager.
func (p *cutProver) srcBDDs(c *composer) (bdd.Ref, error) {
	if p.sref == nil {
		p.sref = make([]bdd.Ref, len(p.src.Nodes))
	}
	r := bdd.False
	var ins []bdd.Ref
	for _, id := range p.scone {
		nd := p.src.Nodes[id]
		ins = ins[:0]
		for _, f := range nd.Fanins {
			in := bdd.False
			if p.sstamp[f] == p.gen {
				if l := p.slit[f]; l >= 0 {
					var err error
					if in, err = litRef(c.m, l); err != nil {
						return bdd.False, err
					}
				} else {
					in = p.sref[f]
				}
			}
			ins = append(ins, in)
		}
		var err error
		if r, err = c.cover(nd.Cover, ins); err != nil {
			return bdd.False, err
		}
		p.sref[id] = r
	}
	return r, nil
}

// signals maps each netlist signal to the subject node it stands for.
type signals struct {
	nl       *netlist.Netlist
	pi, cell []logic.NodeID
	// buffer marks the cells that stand for their input's node.
	buffer []bool
}

func (s *signals) node(r netlist.Ref) logic.NodeID {
	if r.IsPI {
		return s.pi[r.Index]
	}
	return s.cell[r.Index]
}

func (s *signals) name(r netlist.Ref) string {
	if r.IsPI {
		return s.nl.PINames[r.Index]
	}
	return s.nl.Cells[r.Index].Name
}

// buffersRead names the fanout buffers among ins, for an error message:
// a buffer wired to the wrong signal shows at the cells that read it.
func (s *signals) buffersRead(ins []netlist.Ref) string {
	var b strings.Builder
	for pin, r := range ins {
		if !r.IsPI && s.buffer[r.Index] {
			fmt.Fprintf(&b, "; pin %d reads buffer %q", pin, s.name(r))
		}
	}
	return b.String()
}

// cover proves every cell's cone in topological order and returns the
// subject node each netlist signal stands for.
func (p *cutProver) cover(nl *netlist.Netlist) (*signals, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &signals{nl: nl, pi: make([]logic.NodeID, len(nl.PINames)),
		cell: make([]logic.NodeID, len(nl.Cells)), buffer: make([]bool, len(nl.Cells))}
	for i, name := range nl.PINames {
		nd := p.sub.NodeByName(name)
		if nd == nil || nd.Kind != logic.KindPI {
			return nil, fmt.Errorf("equiv: netlist input %q is no subject input", name)
		}
		s.pi[i] = nd.ID
	}
	for _, ci := range order {
		cell := nl.Cells[ci]
		g := cell.Gate
		if len(cell.Inputs) != g.NumInputs || g.NumInputs > len(logic.VarTT) {
			return nil, fmt.Errorf("equiv: cell %q: %d inputs on %d-input gate %s", cell.Name, len(cell.Inputs), g.NumInputs, g.Name)
		}
		nd := p.sub.NodeByName(cell.Name)
		if nd == nil {
			if g.NumInputs != 1 || g.Truth != 0b10 {
				return nil, fmt.Errorf("equiv: cell %q names no subject node and is no buffer", cell.Name)
			}
			s.cell[ci], s.buffer[ci] = s.node(cell.Inputs[0]), true
			continue
		}
		s.cell[ci] = nd.ID
		if err := p.cell(cell, nd.ID, s); err != nil {
			return nil, fmt.Errorf("equiv: cell %q (subject node %q): %w%s", cell.Name, nd.Name, err, s.buffersRead(cell.Inputs))
		}
	}
	return s, nil
}

// cell proves that the cone of v, cut at the nodes cell's inputs stand
// for, computes the cell's truth word over them.
func (p *cutProver) cell(cell *netlist.Cell, v logic.NodeID, s *signals) error {
	p.begin(false)
	p.ins = p.ins[:0]
	for _, in := range cell.Inputs {
		p.ins = append(p.ins, litWord(p.bind(s.node(in))))
	}
	want := logic.EvalTruthWords(cell.Gate.Truth, p.ins)
	if err := p.walk(v); err != nil {
		return err
	}
	if got := p.words(v); got != want {
		return fmt.Errorf("%s differs from its cone on %d of %d rows",
			cell.Gate.Name, bits.OnesCount64(got^want)>>(len(logic.VarTT)-p.vars), 1<<p.vars)
	}
	return nil
}

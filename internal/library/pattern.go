package library

import (
	"fmt"
	"sort"
	"strings"

	"lily/internal/logic"
)

// Op is the node type of a pattern graph.
type Op byte

const (
	// OpLeaf binds to an arbitrary subject-graph signal (a gate input pin).
	OpLeaf Op = iota
	// OpInv matches an inverter node of the subject graph.
	OpInv
	// OpNand2 matches a 2-input NAND node of the subject graph.
	OpNand2
)

func (o Op) String() string {
	switch o {
	case OpLeaf:
		return "leaf"
	case OpInv:
		return "inv"
	default:
		return "nand2"
	}
}

// PatternNode is one vertex of a pattern graph (a tree of base functions
// representing a library gate, paper §2).
type PatternNode struct {
	Op Op
	// Kids holds the children: Kids[0] for OpInv, Kids[0] and Kids[1] for
	// OpNand2, none for OpLeaf.
	Kids [2]*PatternNode
	// Pin is the gate input index for OpLeaf nodes.
	Pin int
}

// Pattern is one structural decomposition of a library gate.
type Pattern struct {
	Root *PatternNode
	// Size is the number of internal (NAND2 + INV) nodes; matches of
	// larger Size merge more subject nodes.
	Size int
}

// String serializes the pattern canonically (commutative NAND children are
// sorted), so identical structures compare equal.
func (p *Pattern) String() string { return canonString(p.Root) }

func canonString(n *PatternNode) string {
	switch n.Op {
	case OpLeaf:
		return fmt.Sprintf("p%d", n.Pin)
	case OpInv:
		return "!(" + canonString(n.Kids[0]) + ")"
	default:
		a, b := canonString(n.Kids[0]), canonString(n.Kids[1])
		if b < a {
			a, b = b, a
		}
		return "nand(" + a + "," + b + ")"
	}
}

func patternSize(n *PatternNode) int {
	switch n.Op {
	case OpLeaf:
		return 0
	case OpInv:
		return 1 + patternSize(n.Kids[0])
	default:
		return 1 + patternSize(n.Kids[0]) + patternSize(n.Kids[1])
	}
}

// patternWord returns the pattern's truth word in the logic.VarTT row
// convention; rows at or above 2^k for a k-pin gate are not cleared.
func patternWord(n *PatternNode) uint64 {
	switch n.Op {
	case OpLeaf:
		return logic.VarTT[n.Pin]
	case OpInv:
		return ^patternWord(n.Kids[0])
	default:
		return ^(patternWord(n.Kids[0]) & patternWord(n.Kids[1]))
	}
}

// patternImplements reports whether the pattern computes the gate's
// function.
func patternImplements(g *Gate, root *PatternNode) bool {
	return patternWord(root)&logic.RowMask(g.NumInputs) == g.Truth
}

// ptree is the intermediate form between the expr DSL and NAND2/INV
// patterns: a binary tree of AND2/OR2/NOT over leaves.
type ptree struct {
	op   byte // 'a' and2, 'o' or2, 'n' not, 'l' leaf
	l, r *ptree
	pin  int
}

// generatePatterns enumerates NAND2/INV pattern graphs for a gate: n-ary
// AND/OR groups are split with several binary-tree shapes (balanced, left-
// and right-leaning), each variant lowered to NAND2/INV with double-
// inverter cancellation, then deduplicated canonically. Multiple pattern
// shapes per gate are what let the matcher find a big gate across subject
// trees decomposed differently (DAGON keeps "many different pattern graphs"
// per gate, §2).
func generatePatterns(g *Gate, e expr, maxPatterns int) []*Pattern {
	variants := enumerate(e, maxPatterns)
	seen := make(map[string]bool)
	var out []*Pattern
	for _, v := range variants {
		root := lower(v)
		p := &Pattern{Root: root, Size: patternSize(root)}
		key := p.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		// Verify the lowered pattern computes the gate function.
		if !patternImplements(g, root) {
			panic(fmt.Sprintf("library: pattern %s does not implement %s", key, g.Name))
		}
		out = append(out, p)
		if len(out) >= maxPatterns {
			break
		}
	}
	// Deterministic order: larger patterns first (prefer merging more
	// subject nodes when costs tie), then lexicographic.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// enumerate lists ptree variants of an expression, capped.
func enumerate(e expr, limit int) []*ptree {
	switch t := e.(type) {
	case in:
		return []*ptree{{op: 'l', pin: int(t)}}
	case not:
		kids := enumerate(t.e, limit)
		out := make([]*ptree, 0, len(kids))
		for _, k := range kids {
			out = append(out, &ptree{op: 'n', l: k})
		}
		return out
	case and:
		return enumerateNary(byte('a'), []expr(t), limit)
	case or:
		return enumerateNary(byte('o'), []expr(t), limit)
	}
	panic("library: unknown expr")
}

func enumerateNary(op byte, kids []expr, limit int) []*ptree {
	// Child variants: cartesian product would explode, so take the full
	// variant set for the first child and the primary variant for the
	// rest; tree shapes provide the real diversity.
	childSets := make([][]*ptree, len(kids))
	for i, k := range kids {
		childSets[i] = enumerate(k, limit)
	}
	var out []*ptree
	for _, shape := range shapes(len(kids)) {
		for vi := 0; vi < len(childSets[0]); vi++ {
			row := make([]*ptree, len(kids))
			for i := range kids {
				if i == 0 {
					row[i] = childSets[i][vi]
				} else {
					row[i] = childSets[i][0]
				}
			}
			out = append(out, buildShape(op, row, shape))
			if len(out) >= limit*3 {
				return out
			}
		}
	}
	return out
}

// shapeKind selects how an n-ary group is split into a binary tree.
type shapeKind byte

const (
	shapeBalanced shapeKind = iota
	shapeLeft
	shapeRight
)

func shapes(n int) []shapeKind {
	if n <= 2 {
		return []shapeKind{shapeBalanced}
	}
	if n == 3 {
		return []shapeKind{shapeLeft, shapeRight}
	}
	return []shapeKind{shapeBalanced, shapeLeft, shapeRight}
}

func buildShape(op byte, kids []*ptree, kind shapeKind) *ptree {
	switch len(kids) {
	case 1:
		return kids[0]
	case 2:
		return &ptree{op: op, l: kids[0], r: kids[1]}
	}
	switch kind {
	case shapeLeft:
		acc := kids[0]
		for _, k := range kids[1:] {
			acc = &ptree{op: op, l: acc, r: k}
		}
		return acc
	case shapeRight:
		acc := kids[len(kids)-1]
		for i := len(kids) - 2; i >= 0; i-- {
			acc = &ptree{op: op, l: kids[i], r: acc}
		}
		return acc
	default:
		mid := len(kids) / 2
		return &ptree{
			op: op,
			l:  buildShape(op, kids[:mid], shapeBalanced),
			r:  buildShape(op, kids[mid:], shapeBalanced),
		}
	}
}

// lower converts a ptree to a NAND2/INV pattern, cancelling double
// inversions: AND(a,b) = INV(NAND(a,b)); OR(a,b) = NAND(INV a, INV b);
// INV(INV(x)) = x.
func lower(t *ptree) *PatternNode {
	switch t.op {
	case 'l':
		return &PatternNode{Op: OpLeaf, Pin: t.pin}
	case 'n':
		return invOf(lower(t.l))
	case 'a':
		return invOf(&PatternNode{Op: OpNand2, Kids: [2]*PatternNode{lower(t.l), lower(t.r)}})
	case 'o':
		return &PatternNode{Op: OpNand2, Kids: [2]*PatternNode{invOf(lower(t.l)), invOf(lower(t.r))}}
	}
	panic("library: unknown ptree op")
}

func invOf(n *PatternNode) *PatternNode {
	if n.Op == OpInv {
		return n.Kids[0]
	}
	return &PatternNode{Op: OpInv, Kids: [2]*PatternNode{n, nil}}
}

// DumpPatterns renders all patterns of a gate, for debugging and docs.
func DumpPatterns(g *Gate) string {
	var b strings.Builder
	for _, p := range g.Patterns {
		fmt.Fprintf(&b, "%s size=%d %s\n", g.Name, p.Size, p)
	}
	return b.String()
}

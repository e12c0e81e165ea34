// Package logic provides the Boolean network data structure shared by all
// stages of the Lily flow: the technology-independent input network, the
// premapped NAND2/INV subject graph, and the final mapped netlist all use
// the same Network type with different node vocabularies.
//
// Node functions are stored as single-output sum-of-products covers in the
// style of BLIF ".names" tables. Covers are the right representation here
// because the technology-independent front end hands the mapper factored
// two-level node functions, and premapping (package decomp) consumes exactly
// that form.
package logic

import (
	"fmt"
	"strings"
)

// Lit is the value of one input position inside a cube.
type Lit byte

const (
	// LitDC means the input does not appear in the cube (don't care).
	LitDC Lit = iota
	// LitPos means the input appears in positive phase.
	LitPos
	// LitNeg means the input appears in negative phase.
	LitNeg
)

// Cube is one product term of a cover: a conjunction of literals over the
// node's fanins, indexed positionally.
type Cube []Lit

// SOP is a single-output sum-of-products cover over n positional inputs.
// The function is the OR of all cubes; an SOP with zero cubes is the
// constant 0, and an SOP with a single all-don't-care cube is the constant 1
// (when NumInputs > 0) or simply constant 1 (when NumInputs == 0).
type SOP struct {
	NumInputs int
	Cubes     []Cube
}

// MaxEvalInputs bounds truth-table evaluation; 2^16 rows is the largest
// table Eval will enumerate.
const MaxEvalInputs = 16

// NewSOP returns an empty (constant-0) cover over n inputs.
func NewSOP(n int) SOP { return SOP{NumInputs: n} }

// ConstSOP returns a constant cover with no inputs.
func ConstSOP(value bool) SOP {
	s := SOP{NumInputs: 0}
	if value {
		s.Cubes = []Cube{{}}
	}
	return s
}

// AddCube appends a product term. The cube length must equal NumInputs.
func (s *SOP) AddCube(c Cube) {
	if len(c) != s.NumInputs {
		panic(fmt.Sprintf("logic: cube width %d != cover width %d", len(c), s.NumInputs))
	}
	s.Cubes = append(s.Cubes, c)
}

// IsConst0 reports whether the cover is structurally the constant 0.
func (s SOP) IsConst0() bool { return len(s.Cubes) == 0 }

// IsConst1 reports whether the cover is structurally the constant 1: it
// contains a cube with no literals.
func (s SOP) IsConst1() bool {
	for _, c := range s.Cubes {
		all := true
		for _, l := range c {
			if l != LitDC {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// EvalCube evaluates one cube under the given input assignment.
func (c Cube) Eval(in []bool) bool {
	for i, l := range c {
		switch l {
		case LitPos:
			if !in[i] {
				return false
			}
		case LitNeg:
			if in[i] {
				return false
			}
		}
	}
	return true
}

// Eval evaluates the cover under the given input assignment.
func (s SOP) Eval(in []bool) bool {
	if len(in) != s.NumInputs {
		panic(fmt.Sprintf("logic: eval with %d inputs, cover has %d", len(in), s.NumInputs))
	}
	for _, c := range s.Cubes {
		if c.Eval(in) {
			return true
		}
	}
	return false
}

// VarTT[i] is the truth table of input variable i over 64 rows: bit r is
// bit i of r. This is the module's one truth-table row convention: row r
// holds the output for the assignment where input i takes bit i of r, so
// a function of at most six inputs fits one word.
var VarTT = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// EvalWords evaluates the cover on 64 input vectors at once: bit k of
// ins[i] is input i in vector k, bit k of the result the output. Each
// cube is the AND of its literals' words and the cover the OR of its
// cubes.
func (s SOP) EvalWords(ins []uint64) uint64 {
	var out uint64
	for _, cube := range s.Cubes {
		term := ^uint64(0)
		for i, l := range cube {
			switch l {
			case LitPos:
				term &= ins[i]
			case LitNeg:
				term &^= ins[i]
			}
		}
		out |= term
	}
	return out
}

// TruthWord returns the truth table of a cover of at most six inputs as
// one word in the VarTT row convention; rows at or above 2^NumInputs are
// zero. It panics for wider covers.
func (s SOP) TruthWord() uint64 {
	if s.NumInputs > len(VarTT) {
		panic(fmt.Sprintf("logic: %d-input cover does not fit a truth-table word", s.NumInputs))
	}
	return s.ttWord(0)
}

// RowMask returns the rows of a truth word that a function of k <= 6
// inputs uses: bits 0 to 2^k-1.
func RowMask(k int) uint64 { return ^uint64(0) >> (64 - (1 << k)) }

// EvalTruthWords evaluates the function of len(ins) <= 6 inputs whose
// truth word, in the VarTT row convention, is tt on 64 input vectors at
// once: bit k of ins[i] is input i in vector k, bit k of the result the
// output. It muxes the Shannon cofactors from the last input down,
// f = x ? f|x=1 : f|x=0, and skips an input whose cofactors agree. Rows
// at or above 2^len(ins) are ignored.
func EvalTruthWords(tt uint64, ins []uint64) uint64 {
	x := len(ins) - 1
	if x < 0 {
		return -(tt & 1)
	}
	f0, f1 := Cofactors(tt, x)
	lo := EvalTruthWords(f0, ins[:x])
	if f0 == f1 {
		return lo
	}
	return lo ^ (lo^EvalTruthWords(f1, ins[:x]))&ins[x]
}

// Cofactors returns the negative and positive cofactors of a truth word
// with respect to input i, both placed on the rows where input i is
// clear (every other row is zero): f0 = f|x_i=0 and f1 = f|x_i=1.
func Cofactors(tt uint64, i int) (f0, f1 uint64) {
	m := ^VarTT[i]
	return tt & m, (tt >> (uint(1) << uint(i))) & m
}

// ttWord returns word w of the cover's truth table, rows 64w to 64w+63.
// Inputs below six vary across the word as VarTT; input j >= 6 is
// constant over it, at bit j-6 of w. Rows past 2^NumInputs are cleared.
func (s SOP) ttWord(w int) uint64 {
	var ins [MaxEvalInputs]uint64
	n := s.NumInputs
	for j := 0; j < n; j++ {
		if j < len(VarTT) {
			ins[j] = VarTT[j]
		} else if w>>(j-len(VarTT))&1 != 0 {
			ins[j] = ^uint64(0)
		}
	}
	out := s.EvalWords(ins[:n])
	if n < len(VarTT) {
		out &= RowMask(n)
	}
	return out
}

// ttWords returns the number of words in the cover's truth table. It
// panics if NumInputs exceeds MaxEvalInputs.
func (s SOP) ttWords() int {
	if s.NumInputs > MaxEvalInputs {
		panic(fmt.Sprintf("logic: truth table over %d inputs exceeds limit %d", s.NumInputs, MaxEvalInputs))
	}
	return (1<<s.NumInputs + 63) / 64
}

// TruthTable enumerates the cover into a bit vector of 2^NumInputs entries
// in the VarTT row convention, 64 rows per word.
// It panics if NumInputs exceeds MaxEvalInputs.
func (s SOP) TruthTable() []uint64 {
	tt := make([]uint64, s.ttWords())
	for w := range tt {
		tt[w] = s.ttWord(w)
	}
	return tt
}

// EqualFunc reports whether two covers over the same number of inputs
// compute the same function, comparing their truth tables word by word
// without materializing them.
func EqualFunc(a, b SOP) bool {
	if a.NumInputs != b.NumInputs {
		return false
	}
	for w, n := 0, a.ttWords(); w < n; w++ {
		if a.ttWord(w) != b.ttWord(w) {
			return false
		}
	}
	return true
}

// LiteralCount returns the number of non-don't-care literals in the cover,
// the usual technology-independent cost metric.
func (s SOP) LiteralCount() int {
	n := 0
	for _, c := range s.Cubes {
		for _, l := range c {
			if l != LitDC {
				n++
			}
		}
	}
	return n
}

// DependsOn reports whether the cover mentions input i in any cube.
func (s SOP) DependsOn(i int) bool {
	for _, c := range s.Cubes {
		if c[i] != LitDC {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the cover.
func (s SOP) Clone() SOP {
	out := SOP{NumInputs: s.NumInputs, Cubes: make([]Cube, len(s.Cubes))}
	for i, c := range s.Cubes {
		out.Cubes[i] = append(Cube(nil), c...)
	}
	return out
}

// String renders the cover in BLIF cube notation ("1-0 1" lines without the
// output column, joined by " + ").
func (s SOP) String() string {
	if s.IsConst0() {
		return "0"
	}
	var parts []string
	for _, c := range s.Cubes {
		var b strings.Builder
		for _, l := range c {
			switch l {
			case LitPos:
				b.WriteByte('1')
			case LitNeg:
				b.WriteByte('0')
			default:
				b.WriteByte('-')
			}
		}
		if b.Len() == 0 {
			b.WriteByte('1')
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, " + ")
}

// Canonical gate covers used throughout the generator and premapper.

// AndSOP returns the n-input AND cover.
func AndSOP(n int) SOP {
	s := NewSOP(n)
	c := make(Cube, n)
	for i := range c {
		c[i] = LitPos
	}
	s.AddCube(c)
	return s
}

// OrSOP returns the n-input OR cover.
func OrSOP(n int) SOP {
	s := NewSOP(n)
	for i := 0; i < n; i++ {
		c := make(Cube, n)
		c[i] = LitPos
		s.AddCube(c)
	}
	return s
}

// NandSOP returns the n-input NAND cover.
func NandSOP(n int) SOP {
	s := NewSOP(n)
	for i := 0; i < n; i++ {
		c := make(Cube, n)
		c[i] = LitNeg
		s.AddCube(c)
	}
	return s
}

// NorSOP returns the n-input NOR cover.
func NorSOP(n int) SOP {
	s := NewSOP(n)
	c := make(Cube, n)
	for i := range c {
		c[i] = LitNeg
	}
	s.AddCube(c)
	return s
}

// NotSOP returns the inverter cover.
func NotSOP() SOP {
	s := NewSOP(1)
	s.AddCube(Cube{LitNeg})
	return s
}

// BufSOP returns the buffer cover.
func BufSOP() SOP {
	s := NewSOP(1)
	s.AddCube(Cube{LitPos})
	return s
}

// XorSOP returns the n-input XOR (odd parity) cover in minterm form.
func XorSOP(n int) SOP {
	if n > MaxEvalInputs {
		panic("logic: xor cover too wide")
	}
	s := NewSOP(n)
	for r := 0; r < 1<<n; r++ {
		if popcount(uint(r))%2 == 1 {
			c := make(Cube, n)
			for j := 0; j < n; j++ {
				if r&(1<<j) != 0 {
					c[j] = LitPos
				} else {
					c[j] = LitNeg
				}
			}
			s.AddCube(c)
		}
	}
	return s
}

// MuxSOP returns the 2:1 mux cover over inputs (sel, a, b): sel ? a : b.
func MuxSOP() SOP {
	s := NewSOP(3)
	s.AddCube(Cube{LitPos, LitPos, LitDC})
	s.AddCube(Cube{LitNeg, LitDC, LitPos})
	return s
}

// AoiSOP returns the complement of (a&b | c&d)-style structures: an
// AND-OR-INVERT cover with the given group sizes. groups holds the fanin
// count of each AND term; the output is the NOR of the AND terms.
func AoiSOP(groups []int) SOP {
	n := 0
	for _, g := range groups {
		n += g
	}
	// Build OR-of-ANDs, then complement via minterm enumeration.
	pos := NewSOP(n)
	off := 0
	for _, g := range groups {
		c := make(Cube, n)
		for j := 0; j < g; j++ {
			c[off+j] = LitPos
		}
		pos.AddCube(c)
		off += g
	}
	return Complement(pos)
}

// OaiSOP returns an OR-AND-INVERT cover: the NAND of OR terms with the
// given group sizes.
func OaiSOP(groups []int) SOP {
	n := 0
	for _, g := range groups {
		n += g
	}
	// AND of ORs = complement of (OR of ANDs of complements).
	neg := NewSOP(n)
	off := 0
	for _, g := range groups {
		c := make(Cube, n)
		for j := 0; j < g; j++ {
			c[off+j] = LitNeg
		}
		neg.AddCube(c)
		off += g
	}
	pos := Complement(neg) // pos = AND of ORs
	return Complement(pos)
}

// Complement returns a cover for the complement of s, by truth-table
// enumeration (minterm form). Intended for small covers (library gates).
func Complement(s SOP) SOP {
	tt := s.TruthTable()
	out := NewSOP(s.NumInputs)
	rows := 1 << s.NumInputs
	for r := 0; r < rows; r++ {
		if tt[r/64]&(1<<(r%64)) == 0 {
			c := make(Cube, s.NumInputs)
			for j := 0; j < s.NumInputs; j++ {
				if r&(1<<j) != 0 {
					c[j] = LitPos
				} else {
					c[j] = LitNeg
				}
			}
			out.AddCube(c)
		}
	}
	return out
}

func popcount(x uint) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

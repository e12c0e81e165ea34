package library

import "lily/internal/logic"

// expr is the input DSL for gate functions: a tree of AND/OR/NOT over
// positional pins. It exists only inside this package; gates expose their
// function as a truth word and their structure as Patterns.
type expr interface{ isExpr() }

// in is a pin reference.
type in int

// not negates a sub-expression.
type not struct{ e expr }

// and is an n-ary conjunction.
type and []expr

// or is an n-ary disjunction.
type or []expr

func (in) isExpr()  {}
func (not) isExpr() {}
func (and) isExpr() {}
func (or) isExpr()  {}

func numPins(e expr) int {
	max := -1
	var walk func(expr)
	walk = func(e expr) {
		switch t := e.(type) {
		case in:
			if int(t) > max {
				max = int(t)
			}
		case not:
			walk(t.e)
		case and:
			for _, c := range t {
				walk(c)
			}
		case or:
			for _, c := range t {
				walk(c)
			}
		}
	}
	walk(e)
	return max + 1
}

func exprDepth(e expr) int {
	switch t := e.(type) {
	case in:
		return 0
	case not:
		return exprDepth(t.e)
	case and:
		d := 0
		for _, c := range t {
			if cd := exprDepth(c); cd > d {
				d = cd
			}
		}
		return d + 1
	case or:
		d := 0
		for _, c := range t {
			if cd := exprDepth(c); cd > d {
				d = cd
			}
		}
		return d + 1
	}
	return 0
}

// exprWord returns the expression's truth word in the logic.VarTT row
// convention; rows at or above 2^numPins(e) are not cleared.
func exprWord(e expr) uint64 {
	switch t := e.(type) {
	case in:
		return logic.VarTT[t]
	case not:
		return ^exprWord(t.e)
	case and:
		w := ^uint64(0)
		for _, c := range t {
			w &= exprWord(c)
		}
		return w
	case or:
		var w uint64
		for _, c := range t {
			w |= exprWord(c)
		}
		return w
	}
	panic("library: unknown expr")
}

package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// HTTPContractAnalyzer pins the response-write discipline of the HTTP
// layer: every handler writes exactly one status code on every path,
// every 429 carries Retry-After, and no body bytes follow an error
// status. The 409/410/429 semantics of the job and batch APIs are
// contracts clients program against; this keeps refactors from quietly
// breaking them.
//
// Checked, per function that takes an http.ResponseWriter:
//
//   - a definite status write (WriteHeader, or a helper that always
//     writes, like writeJSON/http.Error) after another definite status
//     write on the same path — double WriteHeader;
//   - a definite status write inside a for/range loop — it would fire
//     once per iteration;
//   - body bytes written after a definite error status (>= 400):
//     error responses end at the status + error payload;
//   - any occurrence of 429 (literal or http.StatusTooManyRequests)
//     without a lexically preceding Header().Set("Retry-After", ...) in
//     the same function;
//   - a handler-shaped function (w http.ResponseWriter, r *http.Request,
//     no results) that never writes anything and never hands w to
//     another function — a hung request.
//
// Helpers are classified through the call graph: a function that writes
// a status on every path (writeJSON, writeError, http.Error) counts as
// a definite write at its call sites; one that writes on some paths
// (lookupJob, finishedJob) counts as a conditional write. Justify
// deliberate exceptions with `//lint:response <why>`.
var HTTPContractAnalyzer = HTTPContractAnalyzerFor(ModulePath + "/internal/server")

// HTTPContractAnalyzerFor builds an httpcontract analyzer scoped to the
// given import paths.
func HTTPContractAnalyzerFor(importPaths ...string) *ProgramAnalyzer {
	a := &ProgramAnalyzer{
		Name:          "httpcontract",
		Doc:           "handlers write exactly one status per path, 429s carry Retry-After, no body after an error status",
		Justification: "response",
	}
	a.Run = func(pass *ProgramPass) error {
		c := &contractChecker{
			pass:    pass,
			classes: make(map[*types.Func]respClass),
		}
		for _, path := range importPaths {
			pkg := pass.Prog.PackageFor(path)
			if pkg == nil {
				continue
			}
			c.checkPackage(pkg)
		}
		return nil
	}
	return a
}

// respClass says what a function does with the ResponseWriter it is
// handed: never writes, may write on some paths, or definitely writes.
type respClass int

const (
	classNever respClass = iota
	classMay
	classAlways
)

type contractChecker struct {
	pass    *ProgramPass
	classes map[*types.Func]respClass
	inProg  map[*types.Func]bool
}

func (c *contractChecker) checkPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := respWriterParam(pkg, fd)
			if w == nil {
				continue
			}
			c.checkFunc(pkg, fd, w)
		}
	}
}

// respWriterParam returns the object of fd's http.ResponseWriter
// parameter, or nil.
func respWriterParam(pkg *Package, fd *ast.FuncDecl) types.Object {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := pkg.Info.Types[field.Type]
		if !ok || !isResponseWriter(tv.Type) {
			continue
		}
		if len(field.Names) == 0 {
			return nil // unnamed: never used, not checkable
		}
		return pkg.Info.Defs[field.Names[0]]
	}
	return nil
}

func isResponseWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "ResponseWriter"
}

// handlerShaped reports whether fd is (w http.ResponseWriter,
// r *http.Request) with no results — the http.HandlerFunc shape.
func handlerShaped(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Type.Results != nil && len(fd.Type.Results.List) > 0 {
		return false
	}
	params := fd.Type.Params
	if params == nil || len(params.List) != 2 {
		return false
	}
	tv0, ok0 := pkg.Info.Types[params.List[0].Type]
	tv1, ok1 := pkg.Info.Types[params.List[1].Type]
	if !ok0 || !ok1 || !isResponseWriter(tv0.Type) {
		return false
	}
	ptr, ok := tv1.Type.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "Request"
}

// writeEffect is one response-affecting call found in a statement.
type writeEffect struct {
	pos       token.Pos
	kind      respClass // classAlways = definite status write, classMay = conditional
	body      bool      // writes body bytes (w.Write, fmt.Fprintf(w,...), w to opaque callee)
	status    int       // constant status when known, else 0
	errHelper bool      // definite write known to be an error response
}

// pathState tracks what has definitely happened on the current path.
type pathState struct {
	written    bool // a status was definitely written
	errWritten bool // a definite error (>=400) status was written
}

func (c *contractChecker) checkFunc(pkg *Package, fd *ast.FuncDecl, w types.Object) {
	// Taint direct aliases of w (rec := &statusRecorder{ResponseWriter: w}).
	aliases := map[types.Object]bool{w: true}
	collectAliases(pkg, fd.Body, aliases)

	st := pathState{}
	sawAnyWrite := false
	var walk func(stmts []ast.Stmt, s pathState) (pathState, bool)
	loop := func(pos token.Pos, x *ast.BlockStmt, s pathState) pathState {
		// A definite status write inside a loop is fine on paths that
		// return before the next iteration (the validate-then-bail
		// idiom); only a write that survives to the loop's fall-through
		// can repeat.
		loopS, term := walk(x.List, s)
		if !term && loopS.written && !s.written {
			c.pass.Reportf(pos,
				"make every loop iteration that writes a status also return, or hoist the write out of the loop",
				"status write inside a loop can repeat across iterations")
		}
		s.written = s.written || loopS.written
		s.errWritten = s.errWritten || loopS.errWritten
		return s
	}
	walk = func(stmts []ast.Stmt, s pathState) (pathState, bool) {
		for _, stmt := range stmts {
			switch x := stmt.(type) {
			case *ast.ReturnStmt:
				c.applyEffects(pkg, stmt, aliases, &s, &sawAnyWrite)
				return s, true
			case *ast.IfStmt:
				if x.Init != nil {
					c.applyEffects(pkg, x.Init, aliases, &s, &sawAnyWrite)
				}
				c.applyEffects(pkg, x.Cond, aliases, &s, &sawAnyWrite)
				thenS, thenTerm := walk(x.Body.List, s)
				elseS, elseTerm := s, false
				if x.Else != nil {
					switch e := x.Else.(type) {
					case *ast.BlockStmt:
						elseS, elseTerm = walk(e.List, s)
					case *ast.IfStmt:
						elseS, elseTerm = walk([]ast.Stmt{e}, s)
					}
				}
				s = mergeBranches(s, thenS, thenTerm, elseS, elseTerm)
				if thenTerm && elseTerm && x.Else != nil {
					return s, true
				}
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				s = c.walkClauses(x, s, walk, pkg, aliases, &sawAnyWrite)
			case *ast.ForStmt:
				if x.Init != nil {
					c.applyEffects(pkg, x.Init, aliases, &s, &sawAnyWrite)
				}
				s = loop(x.Pos(), x.Body, s)
			case *ast.RangeStmt:
				c.applyEffects(pkg, x.X, aliases, &s, &sawAnyWrite)
				s = loop(x.Pos(), x.Body, s)
			case *ast.BlockStmt:
				var term bool
				s, term = walk(x.List, s)
				if term {
					return s, true
				}
			case *ast.DeferStmt, *ast.GoStmt:
				// Deferred/spawned writes run outside this path order; the
				// write discipline inside their literals is out of scope.
			case *ast.LabeledStmt:
				var term bool
				s, term = walk([]ast.Stmt{x.Stmt}, s)
				if term {
					return s, true
				}
			default:
				if isPanicStmt(pkg, stmt) {
					return s, true
				}
				c.applyEffects(pkg, stmt, aliases, &s, &sawAnyWrite)
			}
		}
		return s, false
	}
	st, _ = walk(fd.Body.List, st)
	_ = st

	c.checkRetryAfter(pkg, fd)

	if !sawAnyWrite && handlerShaped(pkg, fd) {
		c.pass.Reportf(fd.Name.Pos(),
			"write a response (or delegate the ResponseWriter) on every path, or add `//lint:response <why>`",
			"handler %s never writes a response and never hands off the ResponseWriter", fd.Name.Name)
	}
}

// walkClauses merges switch/select clause bodies like an if/else chain.
func (c *contractChecker) walkClauses(stmt ast.Stmt, s pathState,
	walk func([]ast.Stmt, pathState) (pathState, bool),
	pkg *Package, aliases map[types.Object]bool, sawAnyWrite *bool) pathState {

	var clauses [][]ast.Stmt
	switch x := stmt.(type) {
	case *ast.SwitchStmt:
		if x.Init != nil {
			c.applyEffects(pkg, x.Init, aliases, &s, sawAnyWrite)
		}
		if x.Tag != nil {
			c.applyEffects(pkg, x.Tag, aliases, &s, sawAnyWrite)
		}
		for _, cl := range x.Body.List {
			clauses = append(clauses, cl.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range x.Body.List {
			clauses = append(clauses, cl.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, cl := range x.Body.List {
			clauses = append(clauses, cl.(*ast.CommClause).Body)
		}
	}
	merged := s
	for _, body := range clauses {
		clS, clTerm := walk(body, s)
		if !clTerm {
			merged.written = merged.written || clS.written
			merged.errWritten = merged.errWritten || clS.errWritten
		}
	}
	return merged
}

// mergeBranches joins if/else path states: a branch that terminated
// (returned) does not propagate its writes past the join.
func mergeBranches(entry, thenS pathState, thenTerm bool, elseS pathState, elseTerm bool) pathState {
	out := entry
	if !thenTerm {
		out.written = out.written || thenS.written
		out.errWritten = out.errWritten || thenS.errWritten
	}
	if !elseTerm {
		out.written = out.written || elseS.written
		out.errWritten = out.errWritten || elseS.errWritten
	}
	return out
}

// applyEffects scans one statement/expression (excluding nested function
// literals) for response writes in source order and applies the contract
// rules against the current path state.
func (c *contractChecker) applyEffects(pkg *Package, node ast.Node, aliases map[types.Object]bool, s *pathState, sawAnyWrite *bool) {
	effects := c.collectEffects(pkg, node, aliases)
	for _, e := range effects {
		*sawAnyWrite = true
		switch {
		case e.kind == classAlways:
			if s.written {
				c.pass.Reportf(e.pos,
					"make the earlier write and this one mutually exclusive (return after the first, or restructure)",
					"second status write on the same path: the response status was already committed")
			}
			s.written = true
			if e.errHelper || e.status >= 400 {
				s.errWritten = true
			}
		case e.body:
			if s.errWritten {
				c.pass.Reportf(e.pos,
					"error responses end at the error payload; move this write onto the success path",
					"body bytes written after an error status was committed")
			}
			// First body write commits an implicit 200.
			s.written = true
		}
	}
}

// collectEffects finds response-affecting calls under node, in source
// order, skipping function literal interiors.
func (c *contractChecker) collectEffects(pkg *Package, node ast.Node, aliases map[types.Object]bool) []writeEffect {
	var out []writeEffect
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if e, ok := c.callEffect(pkg, call, aliases); ok {
			out = append(out, e)
		}
		return true
	})
	return out
}

// callEffect classifies one call's response effect.
func (c *contractChecker) callEffect(pkg *Package, call *ast.CallExpr, aliases map[types.Object]bool) (writeEffect, bool) {
	// Method calls on w itself.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := unparen(sel.X).(*ast.Ident); ok && aliases[pkg.Info.Uses[id]] {
			switch sel.Sel.Name {
			case "WriteHeader":
				e := writeEffect{pos: call.Pos(), kind: classAlways}
				if len(call.Args) == 1 {
					e.status = constStatus(pkg, call.Args[0])
				}
				return e, true
			case "Write":
				return writeEffect{pos: call.Pos(), body: true}, true
			case "Header":
				return writeEffect{}, false // header mutation, not a write
			}
		}
	}

	// Does the call receive w (or an alias) as an argument?
	handsOffW := false
	for _, arg := range call.Args {
		if id, ok := unparen(arg).(*ast.Ident); ok && aliases[pkg.Info.Uses[id]] {
			handsOffW = true
			break
		}
	}
	if !handsOffW {
		return writeEffect{}, false
	}

	fn := staticCallee(pkg, call.Fun)
	if fn == nil {
		// Dynamic call handed w: could write anything.
		return writeEffect{pos: call.Pos(), kind: classMay}, true
	}
	switch c.classify(fn) {
	case classAlways:
		e := writeEffect{pos: call.Pos(), kind: classAlways}
		e.status, e.errHelper = statusArgOf(pkg, fn, call)
		return e, true
	case classMay:
		return writeEffect{pos: call.Pos(), kind: classMay}, true
	default:
		// Callee never status-writes but consumes w: body sink
		// (io.Copy(w, ...), template.Execute(w, ...), fmt.Fprintf(w, ...)).
		return writeEffect{pos: call.Pos(), body: true}, true
	}
}

// statusArgOf extracts a constant status argument from a call to a
// definite writer, and whether the callee is an error-only helper.
func statusArgOf(pkg *Package, fn *types.Func, call *ast.CallExpr) (int, bool) {
	if fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
		switch fn.Name() {
		case "Error":
			if len(call.Args) == 3 {
				return constStatus(pkg, call.Args[2]), true
			}
			return 0, true
		case "NotFound":
			return 404, true
		case "Redirect":
			if len(call.Args) == 4 {
				return constStatus(pkg, call.Args[3]), false
			}
		}
		return 0, false
	}
	// Module helpers: any constant in 100..599 among the arguments.
	for _, arg := range call.Args {
		if s := constStatus(pkg, arg); s != 0 {
			return s, false
		}
	}
	return 0, false
}

// constStatus returns arg's constant integer value when it is a
// plausible HTTP status (100..599), else 0.
func constStatus(pkg *Package, arg ast.Expr) int {
	tv, ok := pkg.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0
	}
	v, ok := constant.Int64Val(tv.Value)
	if !ok || v < 100 || v > 599 {
		return 0
	}
	return int(v)
}

// classify determines a function's response class: does it write a
// status on every path (Always), some paths (May), or never?
//
// The Always approximation is syntactic: a definite write statement at
// the top level of the body (writeJSON, writeError shape). Recursion
// and unknown externals degrade to May.
func (c *contractChecker) classify(fn *types.Func) respClass {
	if cls, ok := c.classes[fn]; ok {
		return cls
	}
	if c.inProg == nil {
		c.inProg = make(map[*types.Func]bool)
	}
	if c.inProg[fn] {
		return classMay // recursion: be conservative
	}
	c.inProg[fn] = true
	defer delete(c.inProg, fn)

	cls := c.classifyUncached(fn)
	c.classes[fn] = cls
	return cls
}

func (c *contractChecker) classifyUncached(fn *types.Func) respClass {
	// Known stdlib definite writers.
	if fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
		switch fn.Name() {
		case "Error", "NotFound", "Redirect", "ServeFile", "ServeContent", "ServeFileFS":
			return classAlways
		}
	}
	n := c.pass.Prog.Graph.Node(fn)
	if n == nil || n.Decl == nil || n.Decl.Body == nil {
		// External function: assume it may write if it takes a
		// ResponseWriter, else treat as a body sink.
		if sigHasResponseWriter(fn) {
			return classMay
		}
		return classNever
	}
	w := respWriterParam(n.Pkg, n.Decl)
	if w == nil {
		return classNever
	}
	aliases := map[types.Object]bool{w: true}
	collectAliases(n.Pkg, n.Decl.Body, aliases)

	topLevelAlways := false
	anyWrite := false
	for _, stmt := range n.Decl.Body.List {
		for _, e := range c.collectEffects(n.Pkg, stmt, aliases) {
			anyWrite = true
			if e.kind == classAlways && stmtIsTopLevel(stmt) {
				topLevelAlways = true
			}
		}
	}
	// Look inside nested control flow for conditional writes.
	if !anyWrite {
		ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
			if anyWrite {
				return false
			}
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok {
				if _, isEffect := c.callEffect(n.Pkg, call, aliases); isEffect {
					anyWrite = true
				}
			}
			return true
		})
	}
	switch {
	case topLevelAlways:
		return classAlways
	case anyWrite:
		return classMay
	default:
		return classNever
	}
}

// stmtIsTopLevel: effects collected from a body-list statement are top
// level unless the statement is control flow (whose nested effects were
// still collected by collectEffects' Inspect).
func stmtIsTopLevel(stmt ast.Stmt) bool {
	switch stmt.(type) {
	case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt,
		*ast.ForStmt, *ast.RangeStmt, *ast.BlockStmt, *ast.DeferStmt, *ast.GoStmt:
		return false
	}
	return true
}

func sigHasResponseWriter(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isResponseWriter(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// collectAliases taints locals directly aliasing w: assignments whose
// RHS is w itself, a unary &composite-literal mentioning w, or a
// composite literal mentioning w. Calls do NOT propagate taint
// (http.MaxBytesReader(w, ...) returns a reader, not a writer).
func collectAliases(pkg *Package, body *ast.BlockStmt, aliases map[types.Object]bool) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !directAlias(pkg, rhs, aliases) {
					continue
				}
				id, ok := unparen(as.Lhs[i]).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pkg.Info.Defs[id]
				if obj == nil {
					obj = pkg.Info.Uses[id]
				}
				if obj != nil && !aliases[obj] {
					aliases[obj] = true
					changed = true
				}
			}
			return true
		})
	}
}

// directAlias reports whether rhs directly carries w's identity.
func directAlias(pkg *Package, rhs ast.Expr, aliases map[types.Object]bool) bool {
	switch x := unparen(rhs).(type) {
	case *ast.Ident:
		return aliases[pkg.Info.Uses[x]]
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return directAlias(pkg, x.X, aliases)
		}
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			e := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			if id, ok := unparen(e).(*ast.Ident); ok && aliases[pkg.Info.Uses[id]] {
				return true
			}
		}
	}
	return false
}

// checkRetryAfter demands a lexically preceding Retry-After header set
// for every occurrence of status 429 in the function.
func (c *contractChecker) checkRetryAfter(pkg *Package, fd *ast.FuncDecl) {
	var retryPositions []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Set" && sel.Sel.Name != "Add") || len(call.Args) < 1 {
			return true
		}
		tv, ok := pkg.Info.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return true
		}
		if constant.StringVal(tv.Value) == "Retry-After" {
			retryPositions = append(retryPositions, call.Pos())
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var is429 bool
		switch x := n.(type) {
		case *ast.SelectorExpr:
			is429 = x.Sel.Name == "StatusTooManyRequests"
			if is429 {
				// Still descend into X, but the Sel alone would
				// double-count; SelectorExpr pos covers it.
			}
		case *ast.BasicLit:
			is429 = x.Kind == token.INT && x.Value == "429"
		}
		if !is429 {
			return true
		}
		for _, rp := range retryPositions {
			if rp < n.Pos() {
				return true
			}
		}
		c.pass.Reportf(n.Pos(),
			`set w.Header().Set("Retry-After", ...) before committing the 429, or add `+"`//lint:response <why>`",
			"429 response without a lexically preceding Retry-After header")
		return true
	})
}

// isPanicStmt reports whether stmt is a bare panic(...) call.
func isPanicStmt(pkg *Package, stmt ast.Stmt) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isB := pkg.Info.Uses[id].(*types.Builtin)
	return isB
}

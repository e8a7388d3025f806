package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LeaseBalance enforces the engine's executor-leasing contract: a resource
// obtained from a sync.Pool (or from a function annotated //cake:lease)
// must, on every control-flow path of the obtaining function, be either
// released — passed to a Put/Release call or having its Close method
// called — or ownership-transferred by returning it. A leaked lease is not
// a memory leak (the GC reclaims it) but a throughput leak: every dropped
// executor forfeits its packed-panel buffers and forces a cold rebuild,
// which is exactly the allocation the lease cache exists to avoid.
//
// Additionally, a lease that does work between acquisition and a
// non-deferred release — any method call on the leased value — must be
// released in a defer: GEMM work can panic (packing layout guards do), and
// a panic between Get and Put drops the lease on the floor. The
// ok-flag-plus-defer pattern in engine.runPooled is the blessed shape.
//
// The analysis is intra-procedural over the AST with a conservative path
// walk: branches merge with logical AND (released only if released on both
// arms), loop bodies cannot satisfy the obligation for code after the loop
// (they may run zero times), and nil-comparison guards (`if v != nil`)
// void the obligation on the nil arm.
var LeaseBalance = &Analyzer{
	Name: "leasebalance",
	Doc:  "requires sync.Pool / //cake:lease resources to be released or returned on every control-flow path, deferred when work may panic",
	Run:  runLeaseBalance,
}

// releaseNames are callee names that discharge a lease when the leased
// value is the receiver or an argument.
var releaseNames = map[string]bool{
	"Put": true, "put": true,
	"Close": true, "close": true,
	"Release": true, "release": true,
}

func runLeaseBalance(pass *Pass) error {
	// Same-package functions annotated //cake:lease mint leases at their
	// call sites (their own body's Pool.Get obligations are checked too —
	// returning the resource transfers ownership outward).
	leaseFuncs := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !hasDirective(fn.Doc, "lease") {
				continue
			}
			if obj := pass.Info.Defs[fn.Name]; obj != nil {
				leaseFuncs[obj] = true
			}
		}
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLeases(pass, fn, leaseFuncs)
		}
	}
	return nil
}

// isLeaseCall reports whether call acquires a lease: (*sync.Pool).Get or a
// call to a //cake:lease function from this package.
func isLeaseCall(pass *Pass, call *ast.CallExpr, leaseFuncs map[types.Object]bool) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if s, ok := pass.Info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			if s.Obj().Name() == "Get" && isNamedType(s.Recv(), "sync", "Pool") {
				return true
			}
		}
		if obj := pass.Info.Uses[fun.Sel]; obj != nil && leaseFuncs[obj] {
			return true
		}
	case *ast.Ident:
		if obj := pass.Info.Uses[fun]; obj != nil && leaseFuncs[obj] {
			return true
		}
	case *ast.IndexExpr: // generic instantiation: leaseExecutor[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && leaseFuncs[obj] {
				return true
			}
		}
	case *ast.IndexListExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && leaseFuncs[obj] {
				return true
			}
		}
	}
	return false
}

// lease is one tracked obligation within a function.
type lease struct {
	pos               token.Pos             // acquisition site
	vars              map[types.Object]bool // the leased variable and its aliases
	errVar            types.Object          // err of `x, err := lease()`: nil-checks on it guard resource absence
	deferredRelease   bool                  // a defer discharges every later path
	releasedSomewhere bool                  // any non-deferred release seen
	workCalls         []token.Pos           // method calls on the leased value (may panic)
}

// checkLeases finds every lease acquisition in fn and walks the body once
// per lease, reporting paths that drop the obligation.
func checkLeases(pass *Pass, fn *ast.FuncDecl, leaseFuncs map[types.Object]bool) {
	// Collect acquisitions: assignments whose RHS is a lease call. The
	// leased variable is the first non-error LHS.
	var leases []*lease
	bind := func(stmt ast.Stmt) {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isLeaseCall(pass, call, leaseFuncs) {
			return
		}
		if len(as.Lhs) == 0 {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		l := &lease{pos: call.Pos(), vars: map[types.Object]bool{obj: true}}
		// `x, err := lease()` (any arity — the error is conventionally last,
		// as in `x, reused, err := lease()`): remember err so early
		// `if err != nil` guards (where the resource is absent) are not
		// reported as leaks.
		if len(as.Lhs) >= 2 {
			if eid, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && eid.Name != "_" {
				if eobj := pass.Info.Defs[eid]; eobj != nil {
					l.errVar = eobj
				} else {
					l.errVar = pass.Info.Uses[eid]
				}
			}
		}
		leases = append(leases, l)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures are their own scope; keep it intra-procedural
		case *ast.AssignStmt:
			// Covers plain statements and if/for/switch Init clauses alike:
			// Inspect descends into those.
			bind(n)
		}
		return true
	})
	if len(leases) == 0 {
		return
	}

	for _, l := range leases {
		collectAliases(pass, fn.Body, l)
		w := &leaseWalker{pass: pass, l: l}
		st := w.block(fn.Body.List, pathState{})
		if !st.terminated && !st.satisfied() {
			pass.Reportf(l.pos, "leased resource is not released or returned on the path reaching the end of %s", fn.Name.Name)
		}
		if l.releasedSomewhere && !l.deferredRelease && len(l.workCalls) > 0 {
			pass.Reportf(l.pos, "leased resource does work (method call at %s) before a non-deferred release in %s; release it in a defer so a panic cannot drop the lease",
				pass.Fset.Position(l.workCalls[0]), fn.Name.Name)
		}
	}
}

// collectAliases grows the lease's variable set across assignments like
// `d = v.(*T)` or `d := v`, and records method calls on any leased alias
// (work that may panic) plus whether any release is deferred.
func collectAliases(pass *Pass, body *ast.BlockStmt, l *lease) {
	// Iterate to a fixed point: aliasing chains are short in practice.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Rhs {
				if !l.refersTo(pass, as.Rhs[i]) {
					continue
				}
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj != nil && !l.vars[obj] {
					l.vars[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if releasesLease(pass, n.Call, l) || closureReleases(pass, n.Call, l) {
				l.deferredRelease = true
			}
			return false
		case *ast.CallExpr:
			if releasesLease(pass, n, l) {
				l.releasedSomewhere = true
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && l.isVar(pass, id) {
					l.workCalls = append(l.workCalls, n.Pos())
				}
			}
		}
		return true
	})
}

// refersTo reports whether e is the leased variable, possibly through a
// type assertion (`v.(*T)`).
func (l *lease) refersTo(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return l.isVar(pass, e)
	case *ast.TypeAssertExpr:
		return l.refersTo(pass, e.X)
	case *ast.ParenExpr:
		return l.refersTo(pass, e.X)
	}
	return false
}

func (l *lease) isVar(pass *Pass, id *ast.Ident) bool {
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	return obj != nil && l.vars[obj]
}

// releasesLease reports whether call discharges the lease: a Put/Close/
// Release-style call with the leased value as receiver or argument.
func releasesLease(pass *Pass, call *ast.CallExpr, l *lease) bool {
	name := ""
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		if id, ok := fun.X.(*ast.Ident); ok && l.isVar(pass, id) && releaseNames[name] {
			return true // ex.Close()
		}
	case *ast.Ident:
		name = fun.Name
	}
	if !releaseNames[name] {
		return false
	}
	for _, arg := range call.Args {
		if l.refersTo(pass, arg) {
			return true // pool.Put(ex)
		}
	}
	return false
}

// closureReleases reports whether a deferred func-literal call releases the
// lease somewhere in its body (the ok-flag pattern: defer func(){ if ok {
// pool.Put(ex) } else { ex.Close() } }()).
func closureReleases(pass *Pass, call *ast.CallExpr, l *lease) bool {
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && releasesLease(pass, c, l) {
			found = true
		}
		return !found
	})
	return found
}

// pathState tracks one control-flow path's view of the obligation.
type pathState struct {
	released   bool // discharged on this path (release, transfer, or nil-guard)
	deferred   bool // a defer already guarantees discharge
	terminated bool // path ended (return/panic)
	live       bool // the lease statement has been passed on this path
	worked     bool // the leased value has been used since acquisition
}

func (s pathState) satisfied() bool { return !s.live || s.released || s.deferred }

// leaseWalker walks statements tracking a single lease's obligation.
type leaseWalker struct {
	pass *Pass
	l    *lease
}

// block walks a statement list, threading path state.
func (w *leaseWalker) block(stmts []ast.Stmt, st pathState) pathState {
	for _, s := range stmts {
		if st.terminated {
			return st
		}
		st = w.stmt(s, st)
	}
	return st
}

func (w *leaseWalker) stmt(s ast.Stmt, st pathState) pathState {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok && call.Pos() == w.l.pos {
				st.live = true
				return st
			}
		}
		if w.stmtReleases(s) {
			st.released = true
		}
	case *ast.ExprStmt:
		if w.stmtReleases(s) {
			st.released = true
		}
	case *ast.DeferStmt:
		if releasesLease(w.pass, s.Call, w.l) || closureReleases(w.pass, s.Call, w.l) {
			st.deferred = true
		}
	case *ast.ReturnStmt:
		if st.live && !st.released && !st.deferred && !w.returnsLease(s) {
			w.pass.Reportf(s.Pos(), "return without releasing leased resource acquired at %s",
				w.pass.Fset.Position(w.l.pos))
		}
		st.terminated = true
	case *ast.BlockStmt:
		st = w.block(s.List, st)
	case *ast.IfStmt:
		st = w.ifStmt(s, st)
	case *ast.ForStmt:
		// A release inside a loop body may run zero times: check returns
		// inside, but discard the body's discharge for code after the loop.
		if s.Init != nil {
			st = w.stmt(s.Init, st)
		}
		body := w.block(s.Body.List, st)
		st.deferred = st.deferred || body.deferred
		if s.Cond == nil && !hasBreak(s.Body) {
			// `for {}` with no break never falls through.
			st.terminated = true
		}
	case *ast.RangeStmt:
		_ = w.block(s.Body.List, st)
	case *ast.SwitchStmt:
		st = w.caseBodies(switchBodies(s.Body), hasDefaultClause(s.Body), st)
	case *ast.TypeSwitchStmt:
		st = w.caseBodies(switchBodies(s.Body), hasDefaultClause(s.Body), st)
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
		st = w.caseBodies(bodies, true, st)
	case *ast.LabeledStmt:
		st = w.stmt(s.Stmt, st)
	case *ast.GoStmt:
		// A goroutine's release is not ordered with this function's return.
	}
	if isPanicStmt(w.pass.Info, s) {
		st.terminated = true
	}
	if st.live && !st.worked && w.stmtMentionsLease(s) {
		st.worked = true
	}
	return st
}

// stmtMentionsLease reports whether s uses the leased value outside a func
// literal. Once a lease has been used, `err` no longer proves its absence,
// so the err-guard exemption in ifStmt only applies before first use.
func (w *leaseWalker) stmtMentionsLease(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if w.l.isVar(w.pass, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// stmtReleases reports whether any call directly inside s (not nested in a
// func literal) discharges the lease.
func (w *leaseWalker) stmtReleases(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if releasesLease(w.pass, n, w.l) {
				found = true
			}
		}
		return !found
	})
	return found
}

func (w *leaseWalker) returnsLease(ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		if w.l.refersTo(w.pass, r) {
			return true
		}
	}
	return false
}

// ifStmt handles branch merge, including nil-guard special cases: in
// `if v == nil { ... }` the then-arm holds no obligation; in `if v != nil
// { ... }` the implicit (or explicit) else-arm holds none.
func (w *leaseWalker) ifStmt(s *ast.IfStmt, st pathState) pathState {
	if s.Init != nil {
		st = w.stmt(s.Init, st)
	}
	thenSt, elseSt := st, st
	if op, isNilCmp := w.nilCompare(s.Cond); isNilCmp {
		if op == token.EQL {
			thenSt.released = true // v == nil: nothing leased on this arm
		} else {
			elseSt.released = true // v != nil: nil arm is the else
		}
	}
	// `x, err := lease(); if err != nil { return ... }`: on the err-non-nil
	// arm the resource was never produced — but only before x's first use,
	// after which a reassigned err proves nothing about x.
	if op, isErrCmp := w.errCompare(s.Cond); isErrCmp && !st.worked {
		if op == token.NEQ {
			thenSt.released = true
		} else {
			elseSt.released = true
		}
	}
	thenSt = w.block(s.Body.List, thenSt)
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseSt = w.block(e.List, elseSt)
	case *ast.IfStmt:
		elseSt = w.ifStmt(e, elseSt)
	}
	return mergePaths(thenSt, elseSt)
}

// nilCompare matches `X == nil` / `X != nil` where X is the leased value.
func (w *leaseWalker) nilCompare(cond ast.Expr) (token.Token, bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return 0, false
	}
	xNil, yNil := isNilExpr(w.pass.Info, be.X), isNilExpr(w.pass.Info, be.Y)
	if xNil == yNil {
		return 0, false
	}
	valueSide := be.X
	if xNil {
		valueSide = be.Y
	}
	if !w.l.refersTo(w.pass, valueSide) {
		return 0, false
	}
	return be.Op, true
}

// errCompare matches `err == nil` / `err != nil` on the lease's error
// companion variable.
func (w *leaseWalker) errCompare(cond ast.Expr) (token.Token, bool) {
	if w.l.errVar == nil {
		return 0, false
	}
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return 0, false
	}
	xNil, yNil := isNilExpr(w.pass.Info, be.X), isNilExpr(w.pass.Info, be.Y)
	if xNil == yNil {
		return 0, false
	}
	valueSide := be.X
	if xNil {
		valueSide = be.Y
	}
	id, ok := valueSide.(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := w.pass.Info.Uses[id]
	if obj == nil || obj != w.l.errVar {
		return 0, false
	}
	return be.Op, true
}

func mergePaths(a, b pathState) pathState {
	switch {
	case a.terminated && b.terminated:
		return pathState{terminated: true, live: a.live || b.live}
	case a.terminated:
		return b
	case b.terminated:
		return a
	}
	return pathState{
		released: a.released && b.released,
		deferred: a.deferred && b.deferred,
		live:     a.live || b.live,
		worked:   a.worked || b.worked,
	}
}

// caseBodies merges switch/select arms; without a default clause the
// fall-past path keeps the incoming state.
func (w *leaseWalker) caseBodies(bodies [][]ast.Stmt, hasDefault bool, st pathState) pathState {
	if len(bodies) == 0 {
		return st
	}
	merged := pathState{terminated: true}
	for _, b := range bodies {
		merged = mergePaths(merged, w.block(b, st))
	}
	if !hasDefault {
		merged = mergePaths(merged, st)
	}
	return merged
}

func switchBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BranchStmt:
			if n.(*ast.BranchStmt).Tok == token.BREAK {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			return false // break there binds to the inner statement
		}
		return !found
	})
	return found
}

func isPanicStmt(info *types.Info, s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	return ok && isPanicCall(info, call)
}

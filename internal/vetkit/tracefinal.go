package vetkit

import (
	"go/ast"
	"go/types"
	"strings"
)

// TraceFinal enforces the telemetry run contract: every trace run closes
// with exactly one "final" on every exit path, panics and cancellation
// included. trace.Run makes the contract structural — Start opens a run
// and End records its final at most once — so the analyzer checks only
// the shape of the code, not its paths:
//
//  1. Non-test code outside internal/trace builds no trace.Event literal,
//     so every event goes through trace.Start and Run.Iter/End.
//  2. Every trace.Start result is bound to a variable and closed by
//     Run.End in a defer of the same function.
//  3. That defer is the statement right after the Start, or precedes the
//     Start in the same or an enclosing block; otherwise a panic between
//     the two leaves the run without its final.
//
// A function literal is a function of its own: a goroutine body that
// starts a run defers its End itself. A deferred literal's End counts for
// the function registering the defer, whose exits it covers.
var TraceFinal = &Analyzer{
	Name: "tracefinal",
	Doc:  "trace runs open with trace.Start and close with a deferred Run.End registered at once; no trace.Event literals outside internal/trace",
	Run:  runTraceFinal,
}

// tracePkgSuffix identifies the telemetry package by path suffix, so the
// analyzer fires for the real module and for test corpora alike.
const tracePkgSuffix = "internal/trace"

func isTracePkg(p *types.Package) bool {
	return p != nil && strings.HasSuffix(p.Path(), tracePkgSuffix)
}

func runTraceFinal(cfg *Config, pkg *Package) []Diagnostic {
	if strings.HasSuffix(pkg.Path, tracePkgSuffix) {
		return nil
	}
	var diags []Diagnostic
	inspect(pkg, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if named, ok := pkg.Info.TypeOf(n).(*types.Named); ok &&
				named.Obj().Name() == "Event" && isTracePkg(named.Obj().Pkg()) {
				diags = append(diags, pkg.diag(n.Pos(), "tracefinal",
					"trace.Event literal outside internal/trace",
					"open the run with trace.Start and record through Run.Iter and a deferred Run.End"))
			}
		case *ast.FuncDecl:
			if n.Body != nil {
				diags = append(diags, checkRuns(pkg, n.Body)...)
			}
		case *ast.FuncLit:
			diags = append(diags, checkRuns(pkg, n.Body)...)
		}
		return true
	})
	return diags
}

// checkRuns checks the trace.Start calls of one function body; nested
// function literals are checked on their own.
func checkRuns(pkg *Package, body *ast.BlockStmt) []Diagnostic {
	info := pkg.Info
	var starts []*ast.CallExpr
	inspectOwn(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := pkgFuncObj(info, call); fn != nil && fn.Name() == "Start" && isTracePkg(fn.Pkg()) {
				starts = append(starts, call)
			}
		}
		return true
	})
	if len(starts) == 0 {
		return nil
	}
	parents := buildParents(body)
	var diags []Diagnostic
	for _, call := range starts {
		obj, stmt := startBinding(info, parents, call)
		var closers []*ast.DeferStmt
		if obj != nil {
			inspectOwn(body, func(n ast.Node) bool {
				if d, ok := n.(*ast.DeferStmt); ok && endsRun(info, d.Call, obj) {
					closers = append(closers, d)
				}
				return true
			})
		}
		if len(closers) == 0 {
			diags = append(diags, pkg.diag(call.Pos(), "tracefinal",
				"trace.Start result is not closed by a deferred Run.End in this function",
				"bind it (tr := trace.Start(...)) and defer tr.End on the next statement"))
			continue
		}
		covered := false
		for _, d := range closers {
			covered = covered || deferCovers(parents, d, stmt)
		}
		if !covered {
			diags = append(diags, pkg.diag(call.Pos(), "tracefinal",
				"the deferred Run.End is registered after statements that follow trace.Start",
				"defer End on the statement right after Start, or before it: a panic in between exits without a final"))
		}
	}
	return diags
}

// startBinding returns the variable an assignment stores a trace.Start
// result in (the root of the assigned expression, so runs[i] =
// trace.Start(...) binds runs) and the assignment, or nil when the result
// is not assigned to a named variable.
func startBinding(info *types.Info, parents map[ast.Node]ast.Node, call *ast.CallExpr) (types.Object, ast.Stmt) {
	n := skipParens(parents, call)
	as, ok := parents[n].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != len(as.Rhs) {
		return nil, nil
	}
	for i, rhs := range as.Rhs {
		if rhs == n {
			if id := rootIdent(as.Lhs[i]); id != nil {
				return info.ObjectOf(id), as
			}
		}
	}
	return nil, nil
}

// endsRun reports whether the deferred call invokes Run.End on a run
// rooted at obj, directly (defer tr.End(...)) or inside the deferred
// function literal.
func endsRun(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && !found {
			if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				id := rootIdent(sel.X)
				found = ok && isTracePkg(fn.Pkg()) && id != nil && info.ObjectOf(id) == obj
			}
		}
		return !found
	})
	return found
}

// deferCovers reports whether defer d is the statement right after stmt,
// or comes before stmt in stmt's block or an enclosing one.
func deferCovers(parents map[ast.Node]ast.Node, d *ast.DeferStmt, stmt ast.Stmt) bool {
	if list, i := stmtIndex(parents, stmt); i >= 0 && i+1 < len(list) && list[i+1] == d {
		return true
	}
	for n := ast.Node(stmt); n != nil; n = parents[n] {
		list, i := stmtIndex(parents, n)
		for j := 0; j < i; j++ {
			if list[j] == d {
				return true
			}
		}
	}
	return false
}

// stmtIndex returns the statement list holding n and n's index in it, or
// -1 when n's parent is not a block or case body.
func stmtIndex(parents map[ast.Node]ast.Node, n ast.Node) ([]ast.Stmt, int) {
	var list []ast.Stmt
	switch p := parents[n].(type) {
	case *ast.BlockStmt:
		list = p.List
	case *ast.CaseClause:
		list = p.Body
	case *ast.CommClause:
		list = p.Body
	}
	for i, s := range list {
		if s == n {
			return list, i
		}
	}
	return nil, -1
}

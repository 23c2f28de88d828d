package vetkit

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ParWrite enforces the element-disjoint-writes contract of the shared
// worker pool (internal/parallel): a closure handed to parallel.For or
// parallel.ForTri runs concurrently with its siblings, so it may write only
// into disjoint index ranges of shared buffers. Compound assignments
// (`sum += ...`), increments, and `s = append(s, ...)` on variables
// captured from the enclosing function are the shared-accumulator smell:
// they race, and even when "fixed" with a mutex they reintroduce
// scheduling-order-dependent floating-point reduction, which breaks bitwise
// determinism without ever failing -race. The fix is element-disjoint
// writes: each chunk computes its own output elements in the sequential
// per-element order, so the result is bitwise identical for every worker
// count, and any reduction across elements runs after the join.
//
// Indexed writes (buf[i] = ...) are the sanctioned pattern and are never
// flagged.
var ParWrite = &Analyzer{
	Name: "parwrite",
	Doc:  "flag shared-accumulator writes to captured variables inside parallel.For/ForTri closures",
	Run:  runParWrite,
}

func runParWrite(cfg *Config, pkg *Package) []Diagnostic {
	parallelPath := pkg.ModulePath + "/internal/parallel"
	var diags []Diagnostic
	inspect(pkg, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pkgFuncObj(pkg.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != parallelPath {
			return true
		}
		switch fn.Name() {
		case "For", "ForTri":
		default:
			return true
		}
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			diags = append(diags, checkClosure(pkg, fn.Name(), lit)...)
		}
		return true
	})
	return diags
}

// checkClosure flags shared-accumulator writes in one worker closure.
func checkClosure(pkg *Package, helper string, lit *ast.FuncLit) []Diagnostic {
	var diags []Diagnostic
	captured := func(e ast.Expr) *ast.Ident {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		v, ok := pkg.Info.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() {
			return nil
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return nil // declared inside the closure: private to this chunk
		}
		return id
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id := captured(lhs)
				if id == nil {
					continue
				}
				switch {
				case s.Tok == token.ASSIGN && i < len(s.Rhs) && isAppendTo(pkg.Info, s.Rhs[i], id):
					diags = append(diags, pkg.diag(s.Pos(), "parwrite",
						"append to captured variable \""+id.Name+"\" inside parallel."+helper+" closure",
						"chunks race on the shared slice; write element i to its own slot of a presized slice"))
				case s.Tok != token.ASSIGN && s.Tok != token.DEFINE:
					diags = append(diags, pkg.diag(s.Pos(), "parwrite",
						"compound assignment to captured variable \""+id.Name+"\" inside parallel."+helper+" closure",
						"shared accumulator; write element-disjoint outputs (buf[i] = ...) and reduce them after the join"))
				}
			}
		case *ast.IncDecStmt:
			if id := captured(s.X); id != nil {
				diags = append(diags, pkg.diag(s.Pos(), "parwrite",
					id.Name+s.Tok.String()+" on captured variable inside parallel."+helper+" closure",
					"shared counter; count per chunk and sum after the join"))
			}
		}
		return true
	})
	return diags
}

// isAppendTo reports whether e is `append(id, ...)` growing id itself.
func isAppendTo(info *types.Info, e ast.Expr, id *ast.Ident) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[fid].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && arg.Name == id.Name && info.ObjectOf(arg) == info.ObjectOf(id)
}

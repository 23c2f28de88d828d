package vetkit

// Unit tests for the CFG builder and the dataflow searches, pinning the
// semantics the path-sensitive analyzers depend on: early returns and
// panics are exit paths, defers satisfy at their registration point,
// loop back-edges are searched, and in-block ordering is respected.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// buildFunc type-checks src (a complete file of package p) and returns
// the CFG of the function named name.
func buildFunc(t *testing.T, src, name string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return BuildCFG(fd.Body, info)
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// callNamed reports whether n is a statement calling the plain function
// name — the tests' stand-in for "this node discharges the obligation".
func callNamed(n ast.Node, name string) bool {
	var call *ast.CallExpr
	switch s := n.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
	}
	if call == nil {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == name
}

// findStmt returns the unique CFG node for which pred holds.
func findStmt(t *testing.T, cfg *CFG, pred func(ast.Node) bool) ast.Node {
	t.Helper()
	var found ast.Node
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if pred(n) {
				if found != nil {
					t.Fatal("predicate matched more than one node")
				}
				found = n
			}
		}
	}
	if found == nil {
		t.Fatal("predicate matched no node")
	}
	return found
}

const declsHeader = `package p
func acquire() {}
func release() {}
func clobber() {}
func use() {}
`

// satisfyOn classifies calls to name as ClassSatisfy, calls to clobber
// as ClassViolate.
func satisfyOn(name string) func(ast.Node) NodeClass {
	return func(n ast.Node) NodeClass {
		if callNamed(n, name) {
			return ClassSatisfy
		}
		if callNamed(n, "clobber") {
			return ClassViolate
		}
		return ClassNone
	}
}

func TestPathAvoidingEarlyReturn(t *testing.T) {
	cfg := buildFunc(t, declsHeader+`
func f(b bool) {
	acquire()
	if b {
		return
	}
	release()
}`, "f")
	start := findStmt(t, cfg, func(n ast.Node) bool { return callNamed(n, "acquire") })
	if !cfg.PathAvoiding(start, satisfyOn("release")) {
		t.Error("early-return path avoids release, want PathAvoiding=true")
	}
}

func TestPathAvoidingAllPathsReleased(t *testing.T) {
	cfg := buildFunc(t, declsHeader+`
func f(b bool) {
	acquire()
	if b {
		release()
		return
	}
	release()
}`, "f")
	start := findStmt(t, cfg, func(n ast.Node) bool { return callNamed(n, "acquire") })
	if cfg.PathAvoiding(start, satisfyOn("release")) {
		t.Error("both branches release, want PathAvoiding=false")
	}
}

func TestPathAvoidingPanicIsAnExitPath(t *testing.T) {
	cfg := buildFunc(t, declsHeader+`
func f(b bool) {
	acquire()
	if b {
		panic("boom")
	}
	release()
}`, "f")
	start := findStmt(t, cfg, func(n ast.Node) bool { return callNamed(n, "acquire") })
	if !cfg.PathAvoiding(start, satisfyOn("release")) {
		t.Error("panic path avoids release, want PathAvoiding=true")
	}
}

func TestPathAvoidingDeferCoversPanic(t *testing.T) {
	cfg := buildFunc(t, declsHeader+`
func f(b bool) {
	acquire()
	defer release()
	if b {
		panic("boom")
	}
}`, "f")
	start := findStmt(t, cfg, func(n ast.Node) bool { return callNamed(n, "acquire") })
	if cfg.PathAvoiding(start, satisfyOn("release")) {
		t.Error("deferred release satisfies at registration, want PathAvoiding=false")
	}
}

func TestPathAvoidingLoopBackEdgeViolates(t *testing.T) {
	cfg := buildFunc(t, declsHeader+`
func f(n int) {
	acquire()
	for i := 0; i < n; i++ {
		clobber()
	}
	release()
}`, "f")
	start := findStmt(t, cfg, func(n ast.Node) bool { return callNamed(n, "acquire") })
	if !cfg.PathAvoiding(start, satisfyOn("release")) {
		t.Error("loop body clobbers before the release, want PathAvoiding=true")
	}
}

func TestConditionExpressionsAreNodes(t *testing.T) {
	// The `if b` guard must appear as a CFG node so dataflow reads of
	// condition operands are visible to the searches.
	cfg := buildFunc(t, declsHeader+`
func f(b bool) {
	if b {
		use()
	}
}`, "f")
	found := false
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			if id, ok := n.(*ast.Ident); ok && id.Name == "b" {
				found = true
			}
		}
	}
	if !found {
		t.Error("if condition not lifted into the CFG")
	}
}

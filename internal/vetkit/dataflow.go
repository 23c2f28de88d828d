package vetkit

// Dataflow analyses over the CFG of cfg.go. The primitive is
// PathAvoiding, an existential path search: "is there an execution path
// from this checkout to the exit that never releases the lease?" is a
// may-question, answered by a DFS that prunes at satisfying nodes.
// arenalease and journalerr are built on it. It treats the nodes inside a
// block positionally: a node earlier in a block is reached before the
// later nodes of the same block.
//
// The other piece, escape classification, is syntactic: given an
// identifier bound to an arena-owned value, classify each use site as a
// release, a transfer of ownership, an escape (return/send/global), or a
// neutral borrow. It lives with its consumer in arenalease.go; the
// parent-map helper it needs is here.

import (
	"go/ast"
	"go/types"
)

// NodeClass is the verdict of a path-search classifier for one CFG node.
type NodeClass int

const (
	// ClassNone: the node neither satisfies nor violates; the search
	// continues through it.
	ClassNone NodeClass = iota
	// ClassSatisfy: the fact is established here; paths through this node
	// are pruned (they cannot be counterexamples).
	ClassSatisfy
	// ClassViolate: the fact is irrecoverably broken here (the tracked
	// error is overwritten, the buffer reassigned); the search reports a
	// counterexample immediately.
	ClassViolate
)

// PathAvoiding reports whether some execution path from `from`
// (exclusive) to the function exit never passes a ClassSatisfy node.
// ClassViolate nodes short-circuit: reaching one is itself a
// counterexample. Returns false when `from` is not in the graph.
func (c *CFG) PathAvoiding(from ast.Node, classify func(ast.Node) NodeClass) bool {
	start, idx := c.At(from)
	if start == nil {
		return false
	}
	// Walk the remainder of the start block first.
	if verdict, done := scanNodes(start.Nodes[idx+1:], classify); done {
		return verdict
	}
	visited := make([]bool, len(c.Blocks))
	var dfs func(b *Block) bool
	dfs = func(b *Block) bool {
		if b == c.Exit {
			return true
		}
		if visited[b.Index] {
			return false
		}
		visited[b.Index] = true
		if verdict, done := scanNodes(b.Nodes, classify); done {
			return verdict
		}
		if len(b.Succs) == 0 && b != c.Exit {
			// Dead-end block (unreachable trailing code): not an exit path.
			return false
		}
		for _, s := range b.Succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	if len(start.Succs) == 0 && start != c.Exit {
		return false
	}
	for _, s := range start.Succs {
		if dfs(s) {
			return true
		}
	}
	return false
}

// scanNodes classifies a run of nodes in order. done=true means the scan
// concluded: verdict=false for a satisfying node (path pruned),
// verdict=true for a violating one (counterexample found).
func scanNodes(nodes []ast.Node, classify func(ast.Node) NodeClass) (verdict, done bool) {
	for _, n := range nodes {
		switch classify(n) {
		case ClassSatisfy:
			return false, true
		case ClassViolate:
			return true, true
		}
	}
	return false, false
}

// buildParents maps every node under root to its syntactic parent. The
// escape classifier and the analyzers use it to see the context of a use
// site (is this ident the operand of a return? the RHS of a field
// store?).
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// cfgNodeFor climbs the parent chain from n to the nearest enclosing node
// that appears verbatim in the CFG (a statement or a lifted control
// expression), or nil when n is outside the graph.
func cfgNodeFor(c *CFG, parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for m := n; m != nil; m = parents[m] {
		if b, _ := c.At(m); b != nil {
			return m
		}
	}
	return nil
}

// isPkgLevel reports whether obj is declared at package scope.
func isPkgLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// enclosing walks up the parent map from n and returns the nearest
// ancestor for which pred returns true, or nil.
func enclosing(parents map[ast.Node]ast.Node, n ast.Node, pred func(ast.Node) bool) ast.Node {
	for p := parents[n]; p != nil; p = parents[p] {
		if pred(p) {
			return p
		}
	}
	return nil
}

// insideLoop reports whether n sits inside a for/range statement that is
// itself inside the function body `within` (exclusive).
func insideLoop(parents map[ast.Node]ast.Node, n, within ast.Node) bool {
	for p := parents[n]; p != nil && p != within; p = parents[p] {
		switch p.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// usesObjValue reports whether any identifier under n reads obj as a
// value. Identifiers that are pure assignment targets of n itself (n is
// an AssignStmt and the ident is one of its LHS operands) do not count.
func usesObjValue(info *types.Info, n ast.Node, obj types.Object) bool {
	lhsTargets := map[ast.Node]bool{}
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			lhsTargets[ast.Unparen(l)] = true
		}
	}
	found := false
	ast.Inspect(n, func(nd ast.Node) bool {
		if found {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		if info.Uses[id] != obj {
			return true
		}
		if lhsTargets[id] {
			return true
		}
		found = true
		return false
	})
	return found
}

// assignsObj reports whether n writes obj: obj appears as a plain LHS
// operand of an assignment (including := redeclaration in a different
// scope is a different object, so Uses/Defs identity handles shadowing).
func assignsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(nd ast.Node) bool {
		if found {
			return false
		}
		as, ok := nd.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range as.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				if info.Uses[id] == obj || info.Defs[id] == obj {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

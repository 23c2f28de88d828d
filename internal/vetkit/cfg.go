package vetkit

// Intraprocedural control-flow graphs over go/ast function bodies: the
// substrate for the path-sensitive analyzers (arenalease, journalerr). The graph is deliberately simple — basic blocks of
// statements and control expressions with successor edges — but models
// the control constructs that matter for "on every exit path" reasoning:
// branches, loops (with break/continue, labeled or not), switches with
// fallthrough, select, goto, and the terminating calls (panic, os.Exit,
// log.Fatal*, runtime.Goexit) that leave a function without returning.
//
// Two conventions keep the analyses honest:
//
//   - Condition expressions are nodes. An `if err != nil` guard READS err;
//     the read must be visible to the dataflow walks, so loop/branch
//     conditions and switch tags appear in blocks alongside statements,
//     in evaluation order.
//   - Panics flow to Exit. A path that panics is an exit path; an
//     invariant that must hold "on every exit path" (a released lease, an
//     emitted final event) must hold there too — which in practice means
//     it must be established by a defer.
//
// Defer statements get no control edge: they execute at Exit, whenever
// that is reached. Analyses that care (arenalease) treat a
// DeferStmt as establishing its effect at the registration point, which
// is exactly the defer contract: once registered, the deferred call runs
// on every exit path, panicking or not.

import (
	"go/ast"
	"go/types"
)

// Block is one basic block: a maximal run of nodes (statements and
// control expressions, in evaluation order) with a single entry and a
// set of successor blocks.
type Block struct {
	// Nodes holds the block's statements and control expressions in
	// evaluation order. Control expressions (if/for conditions, switch
	// tags, range operands) appear as bare ast.Expr entries.
	Nodes []ast.Node
	// Succs are the blocks control can reach next. Empty only for Exit
	// and for unreachable trailing blocks.
	Succs []*Block
	// Preds is the reverse of Succs, filled in by finish().
	Preds []*Block
	// Index is the block's position in CFG.Blocks (Entry is 0).
	Index int
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters first.
	Entry *Block
	// Exit is the virtual block every return, panic, and fall-off-the-end
	// converges to. It holds no nodes.
	Exit *Block
	// Blocks lists every block, Entry first. Unreachable blocks (code
	// after a return) are present but have no predecessors.
	Blocks []*Block

	pos map[ast.Node]nodePos // node -> (block, index) for At()
}

type nodePos struct {
	block *Block
	index int
}

// At locates a node previously added to the graph, returning its block
// and index within the block, or (nil, 0) if the node is not in the CFG.
// Only nodes that appear verbatim in Block.Nodes are located — statements
// and the control expressions the builder lifts.
func (c *CFG) At(n ast.Node) (*Block, int) {
	p, ok := c.pos[n]
	if !ok {
		return nil, 0
	}
	return p.block, p.index
}

// cfgBuilder threads the under-construction graph through the statement
// walk. cur is nil while the walker is in dead code (after a return);
// statements found there land in fresh predecessor-less blocks so they
// can still be located, but no path reaches them.
type cfgBuilder struct {
	cfg  *CFG
	info *types.Info // optional; improves terminator detection
	cur  *Block

	// breakTargets / continueTargets are stacks of enclosing loop/switch
	// exits, innermost last, each with the label of its enclosing
	// LabeledStmt ("" when unlabeled).
	breakTargets    []labeledBlock
	continueTargets []labeledBlock

	// pendingLabel is the label naming the NEXT loop/switch statement,
	// consumed by the construct that starts under it.
	pendingLabel string

	// gotos are forward references resolved in finish.
	gotos  []gotoRef
	labels map[string]*Block
}

type labeledBlock struct {
	label string
	block *Block
}

type gotoRef struct {
	from  *Block
	label string
}

// BuildCFG constructs the control-flow graph of body. info may be nil;
// when present it sharpens the detection of terminating calls (panic,
// os.Exit) by resolving identifiers through the type checker.
func BuildCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	c := &CFG{pos: map[ast.Node]nodePos{}}
	b := &cfgBuilder{cfg: c, info: info, labels: map[string]*Block{}}
	c.Entry = b.newBlock()
	c.Exit = b.newBlock()
	b.cur = c.Entry
	b.stmtList(body.List)
	// Falling off the end of the body returns.
	b.edgeTo(c.Exit)
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			g.from.Succs = append(g.from.Succs, target)
		}
	}
	// Exit last in the listing reads better in dumps; keep construction
	// order but fill predecessor lists now.
	for _, blk := range c.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return c
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// add appends a node to the current block, starting an unreachable block
// if control cannot reach here.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock() // dead code: block with no predecessors
	}
	b.cfg.pos[n] = nodePos{block: b.cur, index: len(b.cur.Nodes)}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// edgeTo links the current block to next and leaves the builder without a
// current block (callers switch to a new one).
func (b *cfgBuilder) edgeTo(next *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, next)
	}
	b.cur = nil
}

// branchTo adds an edge without closing the current block's construction.
func (b *cfgBuilder) branchTo(next *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, next)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// terminates reports whether call never returns: the panic builtin, or a
// well-known process/goroutine terminator.
func (b *cfgBuilder) terminates(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if b.info == nil {
				return true
			}
			_, isBuiltin := b.info.Uses[fun].(*types.Builtin)
			return isBuiltin
		}
	case *ast.SelectorExpr:
		if b.info != nil {
			if fn, ok := b.info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
				switch fn.Pkg().Path() + "." + fn.Name() {
				case "os.Exit", "runtime.Goexit",
					"log.Fatal", "log.Fatalf", "log.Fatalln":
					return true
				}
			}
		}
	}
	return false
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeTo(b.cfg.Exit)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.terminates(call) {
			b.edgeTo(b.cfg.Exit)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlock := b.cur
		after := b.newBlock()

		thenBlock := b.newBlock()
		condBlock.Succs = append(condBlock.Succs, thenBlock)
		b.cur = thenBlock
		b.stmt(s.Body)
		b.edgeTo(after)

		if s.Else != nil {
			elseBlock := b.newBlock()
			condBlock.Succs = append(condBlock.Succs, elseBlock)
			b.cur = elseBlock
			b.stmt(s.Else)
			b.edgeTo(after)
		} else {
			condBlock.Succs = append(condBlock.Succs, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		header := b.newBlock()
		b.edgeTo(header)
		b.cur = header
		after := b.newBlock()
		if s.Cond != nil {
			b.add(s.Cond)
			b.branchTo(after)
		}
		// Cond-less loops exit only through break/return.
		body := b.newBlock()
		b.branchTo(body)
		b.cur = body
		b.pushLoop(label, after, header)
		b.stmt(s.Body)
		b.popLoop()
		if s.Post != nil {
			// Post runs after the body and after every continue; modeling
			// continue -> header skips it, which is acceptable for the
			// analyses here (Post is index arithmetic, never a release or
			// an emission site in practice).
			b.add(s.Post)
		}
		b.edgeTo(header)
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		header := b.newBlock()
		b.edgeTo(header)
		b.cur = header
		b.add(s.X)
		// The per-iteration key/value assignments are part of the header.
		// The targets are added individually — adding the whole RangeStmt
		// would drag the loop body into the header node's subtree.
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		after := b.newBlock()
		b.branchTo(after) // zero iterations
		body := b.newBlock()
		b.branchTo(body)
		b.cur = body
		b.pushLoop(label, after, header)
		b.stmt(s.Body)
		b.popLoop()
		b.edgeTo(header)
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body.List, func(clause ast.Stmt) ([]ast.Node, []ast.Stmt) {
			cc := clause.(*ast.CaseClause)
			exprs := make([]ast.Node, len(cc.List))
			for i, e := range cc.List {
				exprs[i] = e
			}
			return exprs, cc.Body
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(label, s.Body.List, func(clause ast.Stmt) ([]ast.Node, []ast.Stmt) {
			cc := clause.(*ast.CaseClause)
			exprs := make([]ast.Node, len(cc.List))
			for i, e := range cc.List {
				exprs[i] = e
			}
			return exprs, cc.Body
		})

	case *ast.SelectStmt:
		label := b.takeLabel()
		b.switchClauses(label, s.Body.List, func(clause ast.Stmt) ([]ast.Node, []ast.Stmt) {
			cc := clause.(*ast.CommClause)
			if cc.Comm != nil {
				return []ast.Node{cc.Comm}, cc.Body
			}
			return nil, cc.Body
		})

	case *ast.LabeledStmt:
		// Record the label for gotos, and for the loop/switch that may
		// start right under it (labeled break/continue).
		target := b.newBlock()
		b.edgeTo(target)
		b.cur = target
		b.labels[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok.String() {
		case "break":
			if t := b.findTarget(b.breakTargets, s.Label); t != nil {
				b.edgeTo(t)
			} else {
				b.cur = nil
			}
		case "continue":
			if t := b.findTarget(b.continueTargets, s.Label); t != nil {
				b.edgeTo(t)
			} else {
				b.cur = nil
			}
		case "goto":
			if b.cur != nil {
				b.gotos = append(b.gotos, gotoRef{from: b.cur, label: s.Label.Name})
			}
			b.cur = nil
		case "fallthrough":
			// Handled structurally by switchClauses; nothing to do here.
		}

	default:
		// Assignments, declarations, defer, go, send, incdec, empty:
		// straight-line nodes.
		b.add(s)
	}
}

// switchClauses wires the clause blocks of a switch/type-switch/select:
// the dispatch block branches to every clause (and to after when there is
// no default), each clause body ends at after, and fallthrough chains a
// clause to the next one's body.
func (b *cfgBuilder) switchClauses(label string, clauses []ast.Stmt, split func(ast.Stmt) ([]ast.Node, []ast.Stmt)) {
	dispatch := b.cur
	if dispatch == nil {
		dispatch = b.newBlock()
		b.cur = dispatch
	}
	after := b.newBlock()

	hasDefault := false
	bodies := make([]*Block, len(clauses))
	bodyStmts := make([][]ast.Stmt, len(clauses))
	for i, clause := range clauses {
		exprs, body := split(clause)
		if len(exprs) == 0 {
			hasDefault = true
		}
		cb := b.newBlock()
		dispatch.Succs = append(dispatch.Succs, cb)
		b.cur = cb
		for _, e := range exprs {
			b.add(e)
		}
		bodies[i] = b.cur
		bodyStmts[i] = body
	}
	if !hasDefault {
		dispatch.Succs = append(dispatch.Succs, after)
	}

	// break inside a clause targets after; continue passes through to the
	// enclosing loop, so only the break stack grows.
	b.breakTargets = append(b.breakTargets, labeledBlock{label: label, block: after})
	for i := range clauses {
		b.cur = bodies[i]
		stmts := bodyStmts[i]
		fallsThrough := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
				stmts = stmts[:n-1]
			}
		}
		b.stmtList(stmts)
		if fallsThrough && i+1 < len(clauses) {
			b.edgeTo(bodies[i+1])
		} else {
			b.edgeTo(after)
		}
	}
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.cur = after
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breakTargets = append(b.breakTargets, labeledBlock{label: label, block: brk})
	b.continueTargets = append(b.continueTargets, labeledBlock{label: label, block: cont})
}

func (b *cfgBuilder) popLoop() {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
}

// findTarget resolves a break/continue target: the innermost enclosing
// construct when unlabeled, the matching labeled one otherwise.
func (b *cfgBuilder) findTarget(stack []labeledBlock, label *ast.Ident) *Block {
	if len(stack) == 0 {
		return nil
	}
	if label == nil {
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return nil
}

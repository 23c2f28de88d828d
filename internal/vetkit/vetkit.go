// Package vetkit implements sdpvet, the repository's custom static
// analyzer. It enforces, at CI time, the invariants the solver stack
// promises but the compiler cannot check:
//
//   - Determinism: solver packages hold no entropy sources (detrand), do
//     not iterate maps where order can leak into floating-point
//     accumulation or output (maprange), and do not compare floats with
//     ==/!= where a tolerance or bit-level intent is meant (floateq).
//   - Cancellation: long-running loops in context-carrying functions
//     consult their context (ctxloop).
//   - Parallel safety: closures handed to the shared worker pool write
//     only to disjoint elements, never to captured shared accumulators
//     (parwrite).
//   - Resource leases: every linalg.Arena checkout is released on every
//     exit path and never escapes its lease (arenalease).
//   - Telemetry pairing: every trace.Start is closed by a Run.End deferred
//     at once, so one "final" covers panic and early-return exits, and no
//     code outside internal/trace builds events by hand (tracefinal).
//   - Allocation-free hot paths: functions annotated //sdpvet:hotpath
//     contain no allocating constructs (hotalloc).
//   - Durability: journal/WAL write errors flow into a handler on every
//     path (journalerr).
//
// Two checks are path-sensitive (arenalease, journalerr): cfg.go builds
// an intraprocedural control-flow graph from go/ast, and dataflow.go runs
// path-avoidance searches over it. tracefinal needs no CFG: the trace.Run
// helper makes its contract a syntactic rule. See docs/LINTING.md for the
// "writing a dataflow analyzer" guide.
//
// The implementation deliberately uses only the standard library
// (go/parser, go/ast, go/types, go/importer) — no x/tools — preserving
// the module's stdlib-only constraint. See docs/LINTING.md for the
// analyzer catalogue and the //sdpvet:ignore escape hatch.
package vetkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the analyzer that produced it, a
// one-line message, and a short fix hint.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Hint     string
}

// String renders the diagnostic in the file:line:col form editors parse.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	if d.Hint != "" {
		s += " (" + d.Hint + ")"
	}
	return s
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(cfg *Config, pkg *Package) []Diagnostic
}

// Config scopes the analyzers to the repository's package roles. Paths are
// module-relative (e.g. "internal/sdp") so the same config applies to the
// real module and to test corpora with different module names.
type Config struct {
	// SolverPkgs are the deterministic numeric kernels: no entropy of any
	// kind (math/rand globals, time.Now/Since, os.Getpid), and no map
	// iteration in non-test code.
	SolverPkgs []string
	// SeededPkgs hold stochastic algorithms that must draw all randomness
	// from an injected seeded *rand.Rand. Map iteration is forbidden here
	// too: a seeded run must be bitwise reproducible.
	SeededPkgs []string
	// JournalPkgs form the durability layer: every journal/WAL write error
	// must flow into a handler on every path (journalerr).
	JournalPkgs []string
}

// DefaultConfig returns the package roles for this repository.
func DefaultConfig() *Config {
	return &Config{
		SolverPkgs: []string{
			"internal/core", "internal/sdp", "internal/linalg",
			"internal/netlist", "internal/optimize", "internal/legalize",
		},
		SeededPkgs: []string{
			"internal/anneal", "internal/analytic", "internal/baseline",
			"internal/cluster", "internal/gsrc",
		},
		JournalPkgs: []string{
			"internal/jobstore", "internal/service",
		},
	}
}

// relPath returns pkg's path relative to its module ("internal/sdp" for
// "sdpfloor/internal/sdp"), or "" for the module root package.
func relPath(pkg *Package) string {
	if pkg.Path == pkg.ModulePath {
		return ""
	}
	return strings.TrimPrefix(pkg.Path, pkg.ModulePath+"/")
}

func inList(rel string, list []string) bool {
	for _, p := range list {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// IsSolverPkg reports whether pkg is one of the strict deterministic
// kernel packages.
func (c *Config) IsSolverPkg(pkg *Package) bool { return inList(relPath(pkg), c.SolverPkgs) }

// IsSeededPkg reports whether pkg is a seeded-stochastic package.
func (c *Config) IsSeededPkg(pkg *Package) bool { return inList(relPath(pkg), c.SeededPkgs) }

// Analyzers returns the full analyzer suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRand,
		MapRange,
		FloatEq,
		CtxLoop,
		ParWrite,
		ArenaLease,
		TraceFinal,
		HotAlloc,
		JournalErr,
	}
}

// AnalyzerNames returns the names of the registered analyzers plus the
// reserved "sdpvet" name used by the suppression checker itself.
func AnalyzerNames() []string {
	names := []string{metaAnalyzer}
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// Run applies the given analyzers to each package, resolves
// //sdpvet:ignore suppressions, and returns the surviving diagnostics
// sorted by position. Packages that failed type-checking are skipped here;
// callers surface Package.TypeErr separately.
func Run(cfg *Config, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	active := map[string]bool{}
	for _, a := range analyzers {
		active[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.TypeErr != nil || pkg.Types == nil {
			continue
		}
		sup := collectSuppressions(pkg)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pkgDiags = append(pkgDiags, a.Run(cfg, pkg)...)
		}
		diags = append(diags, sup.apply(pkgDiags, active)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// inspect walks every file of pkg, calling fn for each node. fn returning
// false prunes the subtree.
func inspect(pkg *Package, fn func(ast.Node) bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, fn)
	}
}

// diag builds a Diagnostic at pos.
func (p *Package) diag(pos token.Pos, analyzer, msg, hint string) Diagnostic {
	return Diagnostic{Pos: p.Fset.Position(pos), Analyzer: analyzer, Message: msg, Hint: hint}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// pkgFuncObj resolves a call expression to a package-level function
// object, or nil (methods, builtins, conversions, and locals yield nil).
func pkgFuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

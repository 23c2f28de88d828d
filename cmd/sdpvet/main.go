// Command sdpvet is the repository's custom static analyzer. It
// type-checks every package in the module using only the standard library
// and enforces the determinism, cancellation, parallel-safety, resource,
// telemetry, and durability invariants the solver stack depends on but
// the compiler cannot see:
//
//	detrand     no global math/rand, time.Now, or os.Getpid entropy in
//	            deterministic code
//	maprange    no range-over-map in solver/seeded packages
//	floateq     no ==/!= between floats outside tests
//	ctxloop     loops in context-carrying functions must consult the context
//	parwrite    no shared-accumulator writes in parallel.For/Do closures
//	arenalease  arena checkouts released on every path; no lease escapes
//	tracefinal  trace.Start is closed by a deferred Run.End registered at
//	            once; no trace.Event literals outside internal/trace
//	hotalloc    //sdpvet:hotpath functions contain no allocating constructs
//	journalerr  journal/WAL write errors flow into a handler on every path
//
// The last four check function-wide contracts. arenalease and journalerr
// are path-sensitive: they run path-avoidance searches over an
// intraprocedural CFG (internal/vetkit). tracefinal and hotalloc are
// syntactic; trace.Start and Run.End make tracefinal's one-final contract
// structural.
//
// Usage:
//
//	sdpvet [-analyzers detrand,floateq] [-json] [-github] [patterns ...]
//
// Patterns default to ./... and are resolved against the enclosing
// module. -json prints machine-readable findings (one object per finding,
// stable ordering); -github additionally emits GitHub Actions
// ::error workflow commands so findings annotate pull requests inline.
// A finding can be waived with a trailing or preceding
//
//	//sdpvet:ignore <analyzer> <reason>
//
// comment; unused or malformed suppressions are themselves errors, so
// waivers cannot go stale. Exit status: 0 clean, 1 findings, 2 load or
// type-check failure. See docs/LINTING.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sdpfloor/internal/vetkit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire form of one diagnostic. File paths are
// module-relative so output is stable across checkouts.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Hint     string `json:"hint,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sdpvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only   = fs.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
		list   = fs.Bool("list", false, "list analyzers and exit")
		dir    = fs.String("C", ".", "directory whose module to analyze")
		asJSON = fs.Bool("json", false, "print findings as a JSON array (stable ordering)")
		gitHub = fs.Bool("github", false, "also emit GitHub Actions ::error annotations")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: sdpvet [flags] [packages ...]   (patterns like ./... resolve within the module)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := vetkit.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*vetkit.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "sdpvet: unknown analyzer %q (known: %s)\n",
					name, strings.Join(vetkit.AnalyzerNames(), ", "))
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	loader, err := vetkit.NewLoader(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "sdpvet:", err)
		return 2
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "sdpvet:", err)
		return 2
	}

	status := 0
	analyzed := 0
	for _, pkg := range pkgs {
		switch {
		case pkg.TestOnly:
			// Test-only packages hold no production invariants; skip.
		case pkg.TypeErr != nil:
			fmt.Fprintf(stderr, "sdpvet: %s: type-check failed: %v\n", pkg.Path, pkg.TypeErr)
			status = 2
		default:
			analyzed++
		}
	}
	diags := vetkit.Run(vetkit.DefaultConfig(), pkgs, analyzers)

	// relFile maps a diagnostic's absolute path to a module-relative one
	// (stable across checkouts; what GitHub annotations need).
	relFile := func(abs string) string {
		if rel, err := filepath.Rel(loader.ModuleRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return abs
	}

	if *asJSON {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				File:     relFile(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Hint:     d.Hint,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "sdpvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if *gitHub {
		for _, d := range diags {
			// Workflow command format: newlines and the command characters
			// must be percent-escaped.
			msg := "[" + d.Analyzer + "] " + d.Message
			if d.Hint != "" {
				msg += " (" + d.Hint + ")"
			}
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::%s\n",
				relFile(d.Pos.Filename), d.Pos.Line, d.Pos.Column, githubEscape(msg))
		}
	}
	if len(diags) > 0 && status == 0 {
		status = 1
	}
	if status == 0 && !*asJSON {
		fmt.Fprintf(stdout, "sdpvet: %d packages clean (%d analyzers)\n", analyzed, len(analyzers))
	}
	return status
}

// githubEscape encodes the characters GitHub workflow commands reserve.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

package vetkit

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and (attempted) type-checked package.
type Package struct {
	Path       string // import path, e.g. "sdpfloor/internal/sdp"
	Dir        string
	ModulePath string
	Fset       *token.FileSet
	Files      []*ast.File // non-test files only, parsed with comments
	FileNames  []string    // base names matching Files, build-tag filtered
	Types      *types.Package
	Info       *types.Info
	TypeErr    error // non-nil when type-checking failed; Types may be partial
	TestOnly   bool  // directory holds only _test.go files; not analyzed
}

// Loader loads and type-checks packages of a single module using only the
// standard library. Module-internal imports are resolved recursively from
// source; all other imports (the standard library) go through
// go/importer's source importer. A Loader is not safe for concurrent use.
type Loader struct {
	ModuleRoot string
	ModulePath string

	ctxt    build.Context
	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package // memoized by import path
	loading map[string]bool     // cycle detection
}

// NewLoader locates the enclosing module of dir (by walking up to the
// nearest go.mod) and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		ctxt:       build.Default,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					mp := strings.TrimSpace(rest)
					mp = strings.Trim(mp, `"`)
					if mp == "" {
						break
					}
					return d, mp, nil
				}
			}
			return "", "", fmt.Errorf("vetkit: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("vetkit: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves patterns to packages. Supported patterns: "./..." (every
// package under the module root), "dir/..." (every package under dir),
// and plain directory paths, all relative to the loader's module root.
// Recursive patterns skip subdirectories that hold their own go.mod, as the
// go command does: those belong to a nested module.
// Every matched package is parsed and type-checked; per-package type
// errors are recorded on Package.TypeErr rather than aborting the load.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	addDir := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(pat))
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("vetkit: pattern %q: not a directory under %s", pat, l.ModuleRoot)
		}
		if !recursive {
			addDir(dir)
			continue
		}
		err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			// A directory with its own go.mod is a different module, which
			// "./..." leaves out in the go command too.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != dir && err == nil {
				return filepath.SkipDir
			}
			addDir(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// importPathFor maps a directory under the module root to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "../") {
		return "", fmt.Errorf("vetkit: %s is outside module root %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + rel, nil
}

// loadDir loads the package in dir. Directories with no buildable non-test
// Go files return either nil (nothing at all) or a TestOnly placeholder.
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("vetkit: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, noGo := err.(*build.NoGoError); noGo {
			// Either empty or test-only: go/build reports NoGoError for
			// both; distinguish by the test file lists it still fills in.
			if len(bp.TestGoFiles)+len(bp.XTestGoFiles) > 0 {
				pkg := &Package{Path: path, Dir: dir, ModulePath: l.ModulePath, Fset: l.fset, TestOnly: true}
				l.pkgs[path] = pkg
				return pkg, nil
			}
			return nil, nil
		}
		return nil, fmt.Errorf("vetkit: %s: %w", dir, err)
	}
	fileNames := append([]string(nil), bp.GoFiles...)
	fileNames = append(fileNames, bp.CgoFiles...)
	sort.Strings(fileNames)
	if len(fileNames) == 0 {
		pkg := &Package{Path: path, Dir: dir, ModulePath: l.ModulePath, Fset: l.fset, TestOnly: true}
		l.pkgs[path] = pkg
		return pkg, nil
	}

	pkg := &Package{
		Path:       path,
		Dir:        dir,
		ModulePath: l.ModulePath,
		Fset:       l.fset,
		FileNames:  fileNames,
	}
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.TypeErr = err
			l.pkgs[path] = pkg
			return pkg, nil
		}
		pkg.Files = append(pkg.Files, f)
	}

	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(error) {}, // collect-all; Check returns the first error
	}
	tpkg, err := conf.Check(path, l.fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	pkg.TypeErr = err
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths resolve
// from source against the module root, everything else (the standard
// library) through the source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.TestOnly {
			return nil, fmt.Errorf("vetkit: import %q: no buildable Go files", path)
		}
		if pkg.TypeErr != nil {
			return nil, fmt.Errorf("vetkit: import %q: %w", path, pkg.TypeErr)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

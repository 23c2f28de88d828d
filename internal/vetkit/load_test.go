package vetkit

import (
	"path/filepath"
	"strings"
	"testing"
)

// loadTestModule loads the edge-case module under testdata/mod and indexes
// the result by module-relative package path.
func loadTestModule(t *testing.T) map[string]*Package {
	t.Helper()
	loader, err := NewLoader(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if loader.ModulePath != "vet.test" {
		t.Fatalf("module path = %q, want vet.test", loader.ModulePath)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[strings.TrimPrefix(p.Path, "vet.test/")] = p
	}
	return byPath
}

func TestLoaderBuildTags(t *testing.T) {
	pkgs := loadTestModule(t)
	tagged, ok := pkgs["tagged"]
	if !ok {
		t.Fatalf("tagged package not loaded; got %v", keys(pkgs))
	}
	if tagged.TypeErr != nil {
		// excluded.go deliberately breaks if the loader ignores its
		// build constraint.
		t.Fatalf("tagged package has type error (build-tag-excluded file fed to checker?): %v", tagged.TypeErr)
	}
	if len(tagged.FileNames) != 1 || tagged.FileNames[0] != "normal.go" {
		t.Fatalf("tagged files = %v, want [normal.go]", tagged.FileNames)
	}
}

func TestLoaderTestOnlyPackage(t *testing.T) {
	pkgs := loadTestModule(t)
	only, ok := pkgs["testonly"]
	if !ok {
		t.Fatalf("test-only package not surfaced; got %v", keys(pkgs))
	}
	if !only.TestOnly {
		t.Fatalf("testonly not marked TestOnly: %+v", only)
	}
	if len(only.Files) != 0 {
		t.Fatalf("test-only package parsed %d files, want 0", len(only.Files))
	}
	// Analyzers must skip it without panicking.
	diags := Run(DefaultConfig(), []*Package{only}, Analyzers())
	if len(diags) != 0 {
		t.Fatalf("diagnostics from a test-only package: %v", diags)
	}
}

func TestLoaderTypeError(t *testing.T) {
	pkgs := loadTestModule(t)
	broken, ok := pkgs["broken"]
	if !ok {
		t.Fatalf("broken package not surfaced; got %v", keys(pkgs))
	}
	if broken.TypeErr == nil {
		t.Fatal("broken package loaded without a type error")
	}
	if !strings.Contains(broken.TypeErr.Error(), "notDefinedAnywhere") {
		t.Fatalf("type error does not name the undefined symbol: %v", broken.TypeErr)
	}
	// The failure must stay contained: analyzers skip the package and the
	// rest of the module still loads and runs.
	diags := Run(DefaultConfig(), []*Package{broken}, Analyzers())
	if len(diags) != 0 {
		t.Fatalf("diagnostics from a type-broken package: %v", diags)
	}
}

func TestLoaderImportCycle(t *testing.T) {
	pkgs := loadTestModule(t)
	cyca, ok := pkgs["cyca"]
	if !ok {
		t.Fatalf("cyca not surfaced; got %v", keys(pkgs))
	}
	if cyca.TypeErr == nil || !strings.Contains(cyca.TypeErr.Error(), "cycle") {
		t.Fatalf("import cycle not diagnosed: %v", cyca.TypeErr)
	}
}

func TestLoaderSkipsNestedModules(t *testing.T) {
	pkgs := loadTestModule(t)
	for path := range pkgs {
		if path == "nested" || strings.HasPrefix(path, "nested/") {
			t.Fatalf("recursive load descended into the nested module: loaded %q", path)
		}
	}
	if _, ok := pkgs["tagged"]; !ok {
		t.Fatalf("sibling packages of the nested module not loaded; got %v", keys(pkgs))
	}
}

func TestLoaderSinglePackagePattern(t *testing.T) {
	loader, err := NewLoader(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("tagged")
	if err != nil {
		t.Fatalf("Load(tagged): %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "vet.test/tagged" {
		t.Fatalf("Load(tagged) = %v, want exactly vet.test/tagged", pkgs)
	}
	if _, err := loader.Load("no/such/dir"); err == nil {
		t.Fatal("Load of a missing directory did not error")
	}
}

func keys(m map[string]*Package) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked analysis unit.
type Package struct {
	// Path is the clean import path (test-variant brackets stripped);
	// ListPath the exact `go list` identity (e.g. "p [p.test]").
	Path     string
	ListPath string
	Name     string
	Dir      string
	// ForTest is the tested package's path when this unit is a test
	// variant (in-package or external test files included).
	ForTest  string
	Standard bool

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg mirrors the `go list -json` fields the loader consumes.
type listedPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	ForTest    string
	Module     *struct{ Path string }
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Loader type-checks packages from source in dependency order, using the
// go command only to enumerate files and resolve import paths. It is not
// safe for concurrent use.
type Loader struct {
	// ModuleDir is the directory `go list` runs in (the module root for
	// whole-module loads; any directory works for stdlib-only loads).
	ModuleDir string

	fset   *token.FileSet
	listed map[string]*listedPkg
	typed  map[string]*Package
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{
		ModuleDir: dir,
		fset:      token.NewFileSet(),
		listed:    make(map[string]*listedPkg),
		typed:     make(map[string]*Package),
	}
}

// Load enumerates the patterns (plus test variants and all dependencies),
// type-checks them from source, and returns the analysis targets: the
// patterns' module packages, with each package that has tests represented
// by its test-augmented variant(s) rather than twice.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	order, err := l.list(append([]string{"-deps", "-test"}, patterns...))
	if err != nil {
		return nil, err
	}
	// A package with in-package tests is listed both plain and as a test
	// variant whose GoFiles are a superset; analyzing both would duplicate
	// every finding in the non-test files. Keep the variant only.
	hasVariant := make(map[string]bool)
	for _, path := range order {
		if ft := l.listed[path].ForTest; ft != "" && l.listed[path].Name != "main" &&
			!strings.HasSuffix(l.listed[path].Name, "_test") {
			hasVariant[ft] = true
		}
	}
	var targets []*Package
	for _, path := range order {
		p := l.listed[path]
		if p.Module == nil || p.Name == "main" && strings.HasSuffix(p.ImportPath, ".test") {
			continue // dependency-only, or a synthesized test main
		}
		if p.ForTest == "" && hasVariant[p.ImportPath] {
			continue // superseded by its test variant
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		unit, err := l.typecheck(path)
		if err != nil {
			return nil, err
		}
		targets = append(targets, unit)
	}
	return targets, nil
}

// LoadOne type-checks a single import path (listing it on demand) and
// returns it as an analysis unit. Used by the fixture harness for stdlib
// dependencies of test fixtures.
func (l *Loader) LoadOne(path string) (*Package, error) {
	if err := l.ensure(path); err != nil {
		return nil, err
	}
	return l.typecheck(path)
}

// list runs `go list -e -json` with the given arguments and records every
// reported package, returning them in listing order (dependencies first).
func (l *Loader) list(args []string) ([]string, error) {
	fields := "Dir,ImportPath,Name,Standard,ForTest,Module,GoFiles,ImportMap,Error"
	cmd := exec.Command("go", append([]string{"list", "-e", "-json=" + fields}, args...)...)
	cmd.Dir = l.ModuleDir
	// CGO_ENABLED=0 makes go list select the pure-Go file sets, which is
	// what lets the whole dependency tree type-check from source.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var order []string
	for dec.More() {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		if _, dup := l.listed[p.ImportPath]; !dup {
			l.listed[p.ImportPath] = p
			order = append(order, p.ImportPath)
		}
	}
	return order, nil
}

// ensure makes sure path (and its dependencies) are listed.
func (l *Loader) ensure(path string) error {
	if _, ok := l.listed[path]; ok {
		return nil
	}
	_, err := l.list([]string{"-deps", path})
	return err
}

// typecheck parses and type-checks the listed package, resolving imports
// recursively through the listing. Results are memoized by list path.
func (l *Loader) typecheck(listPath string) (*Package, error) {
	if listPath == "unsafe" {
		return &Package{Path: "unsafe", ListPath: "unsafe", Types: types.Unsafe}, nil
	}
	if unit, ok := l.typed[listPath]; ok {
		return unit, nil
	}
	p, ok := l.listed[listPath]
	if !ok {
		return nil, fmt.Errorf("analysis: package %q not listed", listPath)
	}
	cleanPath := listPath
	if i := strings.IndexByte(cleanPath, ' '); i >= 0 {
		cleanPath = cleanPath[:i] // strip the " [p.test]" variant suffix
	}
	unit := &Package{
		Path:     cleanPath,
		ListPath: listPath,
		Name:     p.Name,
		Dir:      p.Dir,
		ForTest:  p.ForTest,
		Standard: p.Standard,
		Fset:     l.fset,
	}
	// Memoize before checking: import cycles are impossible in valid Go,
	// but a premature entry turns a listing bug into an error, not a hang.
	l.typed[listPath] = unit
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		unit.Files = append(unit.Files, f)
	}
	unit.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			return l.resolveImport(p, importPath)
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(cleanPath, l.fset, unit.Files, unit.Info)
	unit.Types = tpkg
	if err != nil {
		if len(typeErrs) > 0 {
			err = typeErrs[0]
		}
		return nil, fmt.Errorf("analysis: type-checking %s: %w (%d errors)", listPath, err, max(1, len(typeErrs)))
	}
	return unit, nil
}

// resolveImport maps an import path as written in importer's source to
// its listed package and returns that package type-checked. ImportMap
// carries go list's resolution of vendored and test-variant imports.
func (l *Loader) resolveImport(importer *listedPkg, path string) (*types.Package, error) {
	if mapped, ok := importer.ImportMap[path]; ok {
		path = mapped
	}
	if _, ok := l.listed[path]; !ok {
		if _, ok := l.listed["vendor/"+path]; ok {
			path = "vendor/" + path
		} else if err := l.ensure(path); err != nil {
			return nil, err
		}
	}
	unit, err := l.typecheck(path)
	if err != nil {
		return nil, err
	}
	return unit.Types, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

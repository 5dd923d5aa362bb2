package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// RunFixture is the analysistest analogue: it loads dir/src/<path> as a
// fixture package (imports resolve first against dir/src, then against
// the real build — so fixtures can stub repro packages under their real
// import paths), runs the analyzers over it, and compares the surviving
// diagnostics against `// want "regexp"` comments in the fixture:
//
//	c.Barrier() // want `rank-conditional`
//
// Every diagnostic must match a want on its line and every want must be
// matched, in the spirit of golang.org/x/tools/go/analysis/analysistest.
func RunFixture(t *testing.T, dir, path string, analyzers ...*Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	fl := &fixtureLoader{
		root:  filepath.Join(abs, "src"),
		dep:   NewLoader(abs),
		typed: make(map[string]*Package),
	}
	unit, err := fl.load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	diags, err := Run(unit, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on fixture %s: %v", path, err)
	}
	checkWants(t, unit, diags)
}

// fixtureLoader resolves fixture-local import paths under root and
// everything else (stdlib) through a real Loader.
type fixtureLoader struct {
	root  string
	dep   *Loader
	typed map[string]*Package
}

func (fl *fixtureLoader) load(path string) (*Package, error) {
	if unit, ok := fl.typed[path]; ok {
		return unit, nil
	}
	dir := filepath.Join(fl.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return fl.dep.LoadOne(path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := fl.dep.fset
	unit := &Package{Path: path, ListPath: path, Dir: dir, Fset: fset}
	fl.typed[path] = unit
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		unit.Files = append(unit.Files, f)
	}
	if len(unit.Files) == 0 {
		return nil, fmt.Errorf("fixture package %s has no Go files in %s", path, dir)
	}
	unit.Name = unit.Files[0].Name.Name
	unit.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			dep, err := fl.load(importPath)
			if err != nil {
				return nil, err
			}
			return dep.Types, nil
		}),
	}
	tpkg, err := conf.Check(path, fset, unit.Files, unit.Info)
	unit.Types = tpkg
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %w", path, err)
	}
	return unit, nil
}

// wantRE extracts the quoted patterns of one `// want` comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

type want struct {
	pos     token.Position
	pattern *regexp.Regexp
	matched bool
}

// checkWants cross-checks diagnostics against the fixture's `// want`
// expectations, failing the test on any mismatch in either direction.
func checkWants(t *testing.T, unit *Package, diags []Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range unit.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := unit.Fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(text[len("want "):], -1)
				if len(ms) == 0 {
					t.Errorf("%s: malformed want comment: %s", pos, text)
					continue
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, pat, err)
						continue
					}
					wants = append(wants, &want{pos: pos, pattern: re})
				}
			}
		}
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.pos.Filename == d.Pos.Filename && w.pos.Line == d.Pos.Line &&
				w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].pos.Line < wants[j].pos.Line })
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no diagnostic matched want %q", w.pos, w.pattern)
		}
	}
}

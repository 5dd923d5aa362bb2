// Package hotalloc flags fresh allocations inside functions annotated
// `// dchag:hotpath`.
//
// The training step and the serving dispatch loop execute their inner
// functions millions of times; an allocation there churns the GC and
// caps throughput (ROADMAP item 1 is exactly the buffer-reuse work this
// analyzer pre-paves). A function whose doc comment contains
// "dchag:hotpath" promises steady-state allocation-freedom: inside it
// (and its function literals) the analyzer reports
//
//   - make(...) and new(...),
//   - tensor constructors (tensor.New, Ones, Full, FromSlice)
//     and Tensor.Clone,
//   - destination-passing calls (tensor.*Into) whose dst argument is a
//     literal nil: a nil dst makes the kernel allocate the result, so the
//     call is the allocating wrapper in disguise.
//
// The sanctioned alternatives are allocation-free in steady state and
// pass the check: tensor.EnsureShape (grow-once layer-owned scratch),
// tensor.Pool Get/Put (recycled transients), and *Into calls with a
// non-nil destination. The hot path carries zero //lint:ignore hotalloc
// markers; if a new one seems necessary, pool the buffer instead.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// tensorPath is the allocation-heavy package the analyzer knows.
const tensorPath = "repro/internal/tensor"

// allocFuncs are tensor-package functions that allocate fresh buffers.
var allocFuncs = map[string]bool{
	"New":       true,
	"Ones":      true,
	"Full":      true,
	"FromSlice": true,
	"Clone":     true,
}

// marker is the annotation that opts a function into the check.
const marker = "dchag:hotpath"

// Analyzer reports allocations in dchag:hotpath-annotated functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "report make/new and tensor constructor calls inside functions whose doc comment " +
		"contains dchag:hotpath; hot loops must reuse buffers, not churn the GC",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Doc == nil || !strings.Contains(fd.Doc.Text(), marker) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if b, ok := pass.Info.Uses[fun].(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") {
				pass.Reportf(call.Pos(), "%s call in dchag:hotpath function %s allocates on every execution", b.Name(), fd.Name.Name)
			} else if fn := tensorAlloc(pass, fun); fn != nil {
				report(pass, call, fd, fn)
			}
		case *ast.SelectorExpr:
			if fn := tensorAlloc(pass, fun.Sel); fn != nil {
				report(pass, call, fd, fn)
			} else if fn := nilDstInto(pass, call, fun.Sel); fn != nil {
				pass.Reportf(call.Pos(), "nil dst in %s call in dchag:hotpath function %s allocates the result; pass a reused buffer", fn.Name(), fd.Name.Name)
			}
		}
		return true
	})
}

// nilDstInto resolves call to a tensor-package destination-passing function
// (name ending in "Into") invoked with a literal nil destination, or nil.
// Into calls with a real destination are the sanctioned allocation-free
// path and are not reported.
func nilDstInto(pass *analysis.Pass, call *ast.CallExpr, id *ast.Ident) *types.Func {
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != tensorPath || !strings.HasSuffix(fn.Name(), "Into") {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || dst.Name != "nil" {
		return nil
	}
	if _, isNil := pass.Info.Uses[dst].(*types.Nil); !isNil {
		return nil
	}
	return fn
}

func report(pass *analysis.Pass, call *ast.CallExpr, fd *ast.FuncDecl, fn *types.Func) {
	pass.Reportf(call.Pos(), "tensor allocation %s in dchag:hotpath function %s; reuse a buffer instead", fn.Name(), fd.Name.Name)
}

// tensorAlloc resolves id to a tensor-package allocating function or
// method, or nil.
func tensorAlloc(pass *analysis.Pass, id *ast.Ident) *types.Func {
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != tensorPath || !allocFuncs[fn.Name()] {
		return nil
	}
	return fn
}

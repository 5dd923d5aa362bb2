// Package collectivesym flags comm collectives that are reachable only
// under a rank-conditional branch — the classic SPMD desync.
//
// Every rank of a comm.Group must execute the same collective sequence;
// a collective nested under `if rank == 0 { ... }` (or any branch whose
// condition derives from the rank, the mesh coordinate, or a
// leader/root flag) rendezvouses with peers that never arrive and
// surfaces only as a hang — or, worse, pairs with a *different*
// collective issued by the other ranks. The analyzer performs a small
// intra-function taint pass so conditions on locals derived from rank
// expressions (`lead := coord.TP == 0; if lead { ... }`) are caught
// too. Deliberately asymmetric protocols (e.g. a leader broadcasting a
// shutdown sentinel that followers match in their next loop iteration)
// must say so with //lint:ignore collectivesym <reason>.
package collectivesym

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// commPath is the package whose collectives are guarded.
const commPath = "repro/internal/comm"

// collectives are the rendezvous methods of comm.Communicator: every
// rank of the group must call them in lockstep. Its other methods are
// local to the rank and may sit under any branch.
var collectives = map[string]bool{
	"Barrier":            true,
	"AllGatherEach":      true,
	"AllReduce":          true,
	"AllReduceInto":      true,
	"AllReduceScalarSum": true,
	"ReduceScatterSum":   true,
	"Broadcast":          true,
}

// Analyzer flags collective calls guarded by rank-dependent conditions.
var Analyzer = &analysis.Analyzer{
	Name: "collectivesym",
	Doc: "report comm.Communicator collectives reachable only under a rank-conditional branch; " +
		"all ranks of a group must execute the same collective sequence",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{pass: pass, taint: taintedLocals(pass, fd.Body)}
			w.stmt(fd.Body, nil)
		}
	}
	return nil
}

// cond is one enclosing rank-dependent branch.
type cond struct {
	pos  token.Pos
	what string // "if" or "switch"
}

type walker struct {
	pass  *analysis.Pass
	taint map[types.Object]bool
}

// stmt walks a statement under the given stack of rank-conditional
// frames, extending the stack at rank-dependent if/switch branches and
// reporting any collective call found under a non-empty stack.
func (w *walker) stmt(n ast.Node, conds []cond) {
	switch s := n.(type) {
	case nil:
	case *ast.IfStmt:
		w.scanExpr(s.Cond, conds)
		inner := conds
		if w.rankDep(s.Cond) {
			inner = append(conds[:len(conds):len(conds)], cond{pos: s.Cond.Pos(), what: "if"})
		}
		if s.Init != nil {
			w.stmt(s.Init, conds)
		}
		w.stmt(s.Body, inner)
		w.stmt(s.Else, inner)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, conds)
		}
		dep := s.Tag != nil && w.rankDep(s.Tag)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			inner := conds
			caseDep := dep
			for _, e := range cc.List {
				w.scanExpr(e, conds)
				caseDep = caseDep || w.rankDep(e)
			}
			if caseDep {
				inner = append(conds[:len(conds):len(conds)], cond{pos: s.Pos(), what: "switch"})
			}
			for _, st := range cc.Body {
				w.stmt(st, inner)
			}
		}
	default:
		// Every other node: scan embedded expressions for collective
		// calls at the current depth and recurse into child statements.
		ast.Inspect(n, func(c ast.Node) bool {
			switch cn := c.(type) {
			case *ast.IfStmt, *ast.SwitchStmt:
				w.stmt(cn.(ast.Stmt), conds)
				return false
			case *ast.CallExpr:
				w.checkCall(cn, conds)
			}
			return true
		})
	}
}

// scanExpr reports collectives inside a condition expression itself,
// which sits at the enclosing depth (all ranks evaluate the condition).
func (w *walker) scanExpr(e ast.Expr, conds []cond) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(c ast.Node) bool {
		if call, ok := c.(*ast.CallExpr); ok {
			w.checkCall(call, conds)
		}
		return true
	})
}

func (w *walker) checkCall(call *ast.CallExpr, conds []cond) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := w.pass.Info.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != commPath || !collectives[obj.Name()] {
		return
	}
	if len(conds) == 0 {
		return
	}
	at := w.pass.Fset.Position(conds[len(conds)-1].pos)
	w.pass.Reportf(call.Pos(),
		"collective %s is reachable only under a rank-conditional %s (condition at %s:%d); every rank of the group must execute the same collective sequence",
		obj.Name(), conds[len(conds)-1].what, at.Filename, at.Line)
}

// rankDep reports whether the expression derives from rank identity: it
// mentions a rank-like name, calls a rank accessor, or uses a local the
// taint pass marked as rank-derived.
func (w *walker) rankDep(e ast.Expr) bool {
	dep := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if rankName(x.Name) || w.taint[w.pass.Info.Uses[x]] {
				dep = true
			}
		case *ast.SelectorExpr:
			if rankName(x.Sel.Name) {
				dep = true
			}
		}
		return !dep
	})
	return dep
}

// rankName matches identifiers that denote rank identity.
func rankName(name string) bool {
	l := strings.ToLower(name)
	switch l {
	case "lead", "leader", "islead", "isleader", "root", "isroot":
		return true
	}
	return strings.Contains(l, "rank") || strings.Contains(l, "coord")
}

// taintedLocals runs a small fixpoint over the function body: a local is
// rank-derived when any assignment to it mentions a rank-like name or
// another rank-derived local. Bounded at a handful of passes — taint
// chains longer than that do not occur in honest code.
func taintedLocals(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	taint := make(map[types.Object]bool)
	mentions := func(e ast.Expr) bool {
		dep := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if rankName(x.Name) || taint[pass.Info.Uses[x]] {
					dep = true
				}
			case *ast.SelectorExpr:
				if rankName(x.Sel.Name) {
					dep = true
				}
			}
			return !dep
		})
		return dep
	}
	lhsObj := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			return obj
		}
		return pass.Info.Uses[id]
	}
	for round := 0; round < 4; round++ {
		grew := false
		mark := func(obj types.Object) {
			if obj != nil && !taint[obj] {
				taint[obj] = true
				grew = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, lhs := range s.Lhs {
						if mentions(s.Rhs[i]) {
							mark(lhsObj(lhs))
						}
					}
				} else if len(s.Rhs) == 1 && mentions(s.Rhs[0]) {
					for _, lhs := range s.Lhs {
						mark(lhsObj(lhs))
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					switch {
					case len(s.Values) == len(s.Names) && mentions(s.Values[i]):
						mark(pass.Info.Defs[name])
					case len(s.Values) == 1 && len(s.Names) > 1 && mentions(s.Values[0]):
						mark(pass.Info.Defs[name])
					}
				}
			case *ast.RangeStmt:
				if s.X != nil && mentions(s.X) {
					if s.Key != nil {
						mark(lhsObj(s.Key))
					}
					if s.Value != nil {
						mark(lhsObj(s.Value))
					}
				}
			}
			return true
		})
		if !grew {
			break
		}
	}
	return taint
}

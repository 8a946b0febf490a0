// Package checks holds the project-specific analyzers run by
// cmd/kernvet. Each analyzer mechanically enforces an invariant that
// an earlier PR established by convention:
//
//   - atomicexpvar: atomically-written counters are never accessed
//     plainly, and expvar metric fields are mutated only through their
//     owning type's helpers (the /metrics surfaces of PRs 6 and 9).
//   - bitexact: code annotated //kernvet:bitexact (coordinator merge,
//     wire codec, fleet shard combine, bandwidth.Best) stays
//     deterministic — no map ranges, completion-order collection,
//     wall-clock/rand influence, or float == (PRs 7–9's bit-identity
//     contract).
//   - compsum: running float sums in sweep loops must be compensated
//     (the PR 3 stability layer).
//   - ctxpoll: exported ...Context entry points must actually poll or
//     propagate their context, and a non-Context sibling, where one
//     exists, must not take one (PR 2).
//   - errdiscipline: sentinel and typed errors flow through
//     errors.Is/As and %w wrapping, never ==, type assertions, or
//     string matching (the typed-error families of PRs 7–9).
//   - goleak: goroutines launched in exported APIs are joined or bound
//     to an in-function cancellable context (PR 9's hedging and PR 7's
//     requeue loops).
//   - lockdefer: mutexes in internal/serve must be released on every
//     path (PR 2's drain/submit ordering).
//   - narrowconv: float64→float32 narrowing may happen only inside
//     designated f32 kernels (the paper's device precision boundary).
//   - poolpair: pooled workspaces acquired via sync.Pool.Get or
//     AcquireWorkspace must be released exactly once (PR 4).
//
// The engine adds a tenth check name, "staleignore" (see
// analysis.StaleCheck): //kernvet:ignore directives that suppress
// nothing are findings themselves on full-suite runs.
package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// All returns every analyzer in the suite, sorted by name (the order
// -list prints and CI reports).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Atomicexpvar,
		Bitexact,
		Compsum,
		Ctxpoll,
		Errdiscipline,
		Goleak,
		Lockdefer,
		Narrowconv,
		Poolpair,
	}
}

// ByName returns the named analyzers (nil and false when any name is
// unknown).
func ByName(names []string) ([]*analysis.Analyzer, bool) {
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}

// inScope reports whether the pass's package path sits under any of
// the given import-path prefixes.
func inScope(pass *analysis.Pass, prefixes ...string) bool {
	p := pass.Path()
	for _, pre := range prefixes {
		if p == pre || strings.HasPrefix(p, pre+"/") {
			return true
		}
	}
	return false
}

// floatKind classifies a type as float32/float64 (after unwrapping
// named types); ok is false for everything else or missing type info.
func floatKind(t types.Type) (kind types.BasicKind, ok bool) {
	if t == nil {
		return 0, false
	}
	b, isBasic := t.Underlying().(*types.Basic)
	if !isBasic {
		return 0, false
	}
	switch b.Kind() {
	case types.Float32, types.Float64:
		return b.Kind(), true
	}
	return 0, false
}

// rootIdent returns the leftmost identifier of a chain of selector,
// index, and paren expressions ("ws.absd[i]" → ws), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// sameExpr reports whether two expressions are structurally identical
// references (identifiers, selectors, or index expressions over the
// same objects). It is the equality used to recognise `x = x + e`.
func sameExpr(info *types.Info, a, b ast.Expr) bool {
	switch av := a.(type) {
	case *ast.Ident:
		bv, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		ao, bo := info.ObjectOf(av), info.ObjectOf(bv)
		if ao != nil || bo != nil {
			return ao == bo
		}
		return av.Name == bv.Name
	case *ast.SelectorExpr:
		bv, ok := b.(*ast.SelectorExpr)
		return ok && av.Sel.Name == bv.Sel.Name && sameExpr(info, av.X, bv.X)
	case *ast.IndexExpr:
		bv, ok := b.(*ast.IndexExpr)
		return ok && sameExpr(info, av.X, bv.X) && sameExpr(info, av.Index, bv.Index)
	case *ast.ParenExpr:
		return sameExpr(info, av.X, b)
	}
	return false
}

// loopVarObjects returns the objects bound per-iteration by loop:
// range key/value identifiers, or variables declared in a classic for
// statement's init clause.
func loopVarObjects(info *types.Info, loop ast.Stmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	addIdent := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if o := info.ObjectOf(id); o != nil {
				out[o] = true
			}
		}
	}
	switch l := loop.(type) {
	case *ast.RangeStmt:
		if l.Key != nil {
			addIdent(l.Key)
		}
		if l.Value != nil {
			addIdent(l.Value)
		}
	case *ast.ForStmt:
		if init, ok := l.Init.(*ast.AssignStmt); ok {
			for _, lhs := range init.Lhs {
				addIdent(lhs)
			}
		}
	}
	return out
}

// loopBody returns the body block of a for or range statement.
func loopBody(loop ast.Stmt) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// within reports whether pos falls inside node's source range.
func within(pos token.Pos, node ast.Node) bool {
	return node != nil && node.Pos() <= pos && pos < node.End()
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// contextParam returns the object and field of the first
// context.Context parameter of fd, or nil.
func contextParam(pass *analysis.Pass, fd *ast.FuncDecl) (types.Object, *ast.Field) {
	if fd.Type.Params == nil {
		return nil, nil
	}
	for _, field := range fd.Type.Params.List {
		typed := isContextType(pass.TypeOf(field.Type))
		if !typed {
			// Syntactic fallback for partially type-checked trees.
			if sel, ok := field.Type.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Context" {
				continue
			}
			if id, ok := field.Type.(*ast.SelectorExpr).X.(*ast.Ident); !ok || id.Name != "context" {
				continue
			}
		}
		for _, name := range field.Names {
			if o := pass.ObjectOf(name); o != nil {
				return o, field
			}
		}
		return nil, field // unnamed ctx parameter
	}
	return nil, nil
}

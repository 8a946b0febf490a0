package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Ctxpoll enforces the context-plumbing contract of PR 2: every
// exported function whose name ends in "Context"
//
//   - takes a context.Context parameter,
//   - actually observes it — referencing ctx.Err/ctx.Done/ctx.Deadline
//     or passing ctx onward (as a call argument, struct field, or
//     return value); a ...Context entry point that never looks at its
//     context silently loses cancellation for every caller,
//   - never replaces the caller's context with context.Background()/
//     context.TODO(), and
//   - if a non-Context sibling (the same name minus the suffix) exists
//     in the package, that sibling does not itself take a
//     context.Context — it would shadow the Context variant and invite
//     callers to bypass the convention. A lone ...Context function is
//     fine: a sibling that only fills in context.Background() is a
//     wrapper callers can write themselves.
var Ctxpoll = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "exported ...Context functions must poll or propagate ctx, and a non-Context sibling must not take one",
	Run:  runCtxpoll,
}

func runCtxpoll(pass *analysis.Pass) {
	// Index every function declaration for the sibling check;
	// methods are keyed by receiver type so siblings must share it.
	decls := make(map[string]*ast.FuncDecl)
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[funcKey(fd)] = fd
			}
		}
	}
	for _, f := range pass.Files() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if !ast.IsExported(name) || !strings.HasSuffix(name, "Context") || name == "Context" {
				continue
			}
			checkContextFunc(pass, fd, decls)
		}
	}
}

// funcKey identifies a function by receiver type and name, so that
// methods on different types never count as each other's siblings.
func funcKey(fd *ast.FuncDecl) string {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv = typeName(fd.Recv.List[0].Type) + "."
	}
	return recv + fd.Name.Name
}

// typeName renders a receiver type expression ("*Server" → "Server").
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.IndexExpr: // generic receiver, one type parameter
		return typeName(t.X)
	case *ast.IndexListExpr: // generic receiver, multiple type parameters
		// Without this case every multi-parameter generic receiver keyed
		// to "", so methods on different such types counted as each
		// other's siblings and a shadowing check hit the wrong type.
		return typeName(t.X)
	}
	return ""
}

func checkContextFunc(pass *analysis.Pass, fd *ast.FuncDecl, decls map[string]*ast.FuncDecl) {
	ctxObj, ctxField := contextParam(pass, fd)
	if ctxField == nil {
		pass.Reportf(fd.Pos(), "exported %s takes no context.Context parameter", fd.Name.Name)
		return
	}
	if fd.Body != nil && ctxObj == nil {
		pass.Reportf(fd.Pos(), "%s's context parameter is unnamed and can never be polled", fd.Name.Name)
	}
	if fd.Body != nil && ctxObj != nil {
		polled := false
		analysis.InspectStack([]*ast.File{wrapBody(fd)}, func(n ast.Node, stack []ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				if pass.ObjectOf(x) != ctxObj {
					return true
				}
				if usesContext(x, stack) {
					polled = true
				}
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name != ctxObj.Name() || i >= len(x.Rhs) {
						continue
					}
					if isBackgroundCall(x.Rhs[i]) && !insideNilGuard(pass, stack, ctxObj) {
						pass.Reportf(x.Pos(), "%s discards the caller's context with context.%s()",
							fd.Name.Name, backgroundName(x.Rhs[i]))
					}
				}
			}
			return true
		})
		if !polled {
			pass.Reportf(fd.Pos(),
				"%s never polls its context (no ctx.Err/ctx.Done/ctx.Deadline and ctx is not passed onward); cancellation is silently lost",
				fd.Name.Name)
		}
	}
	sib, ok := decls[strings.TrimSuffix(funcKey(fd), "Context")]
	if !ok {
		return
	}
	if _, sibCtx := contextParam(pass, sib); sibCtx != nil {
		pass.Reportf(sib.Pos(), "%s takes a context.Context, shadowing its Context variant %s", sib.Name.Name, fd.Name.Name)
	}
}

// wrapBody packages a single function declaration as a file so the
// stack inspector can walk it.
func wrapBody(fd *ast.FuncDecl) *ast.File {
	return &ast.File{Name: ast.NewIdent("p"), Decls: []ast.Decl{fd}}
}

// usesContext reports whether this occurrence of the ctx identifier
// counts as observing or propagating the context.
func usesContext(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr:
		if parent.X != id {
			return false
		}
		switch parent.Sel.Name {
		case "Err", "Done", "Deadline", "Value":
			return true
		}
		return false
	case *ast.CallExpr:
		for _, arg := range parent.Args {
			if arg == id {
				return true // passed onward
			}
		}
		return false
	case *ast.KeyValueExpr:
		return parent.Value == id // stored in a struct (e.g. a queued job)
	case *ast.CompositeLit:
		for _, elt := range parent.Elts {
			if elt == id {
				return true
			}
		}
		return false
	case *ast.ReturnStmt:
		return true
	case *ast.AssignStmt:
		for _, rhs := range parent.Rhs {
			if rhs == id {
				return true // rebound and (presumably) used under the new name
			}
		}
		return false
	}
	return false
}

// insideNilGuard reports whether the stack passes through an if whose
// condition is `ctx == nil` — the idiomatic defaulting guard
// `if ctx == nil { ctx = context.Background() }`, which preserves any
// caller-supplied context and is not a discard.
func insideNilGuard(pass *analysis.Pass, stack []ast.Node, ctxObj types.Object) bool {
	isCtxNilCheck := func(e ast.Expr) bool {
		bin, ok := e.(*ast.BinaryExpr)
		if !ok || bin.Op != token.EQL {
			return false
		}
		matches := func(a, b ast.Expr) bool {
			id, ok := a.(*ast.Ident)
			if !ok || pass.ObjectOf(id) != ctxObj {
				return false
			}
			n, ok := b.(*ast.Ident)
			return ok && n.Name == "nil"
		}
		return matches(bin.X, bin.Y) || matches(bin.Y, bin.X)
	}
	for _, n := range stack {
		if ifs, ok := n.(*ast.IfStmt); ok && isCtxNilCheck(ifs.Cond) {
			return true
		}
	}
	return false
}

// isBackgroundCall matches context.Background() / context.TODO().
func isBackgroundCall(e ast.Expr) bool { return backgroundName(e) != "" }

func backgroundName(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "context" {
		return ""
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		return sel.Sel.Name
	}
	return ""
}

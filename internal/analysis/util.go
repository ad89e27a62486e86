package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Type- and call-matching helpers shared by the analyzers. Matching is by
// type *name* (optionally qualified by package name), not by import path:
// the repo's own packages match naturally, and analysistest packages can
// model bufferpool.Pool or metrics.Counters with local stand-in types.

// NamedType returns the named type underlying t, unwrapping pointers and
// aliases, or nil.
func NamedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// TypeNameIs reports whether t (possibly behind a pointer) is a named
// type with the given name. If pkg is non-empty the defining package's
// name must match too; testdata stand-ins are exempted by passing "".
func TypeNameIs(t types.Type, pkg, name string) bool {
	n := NamedType(t)
	if n == nil || n.Obj().Name() != name {
		return false
	}
	if pkg == "" {
		return true
	}
	p := n.Obj().Pkg()
	return p != nil && p.Name() == pkg
}

// ReceiverOf resolves the receiver expression type of a method call
// `x.M(...)`. It returns nil for non-selector calls.
func ReceiverOf(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return info.TypeOf(sel.X)
}

// IsMethodCall reports whether call is `x.name(...)` with x of named type
// recvName (any package — the analyzers' tables are name-scoped).
func IsMethodCall(info *types.Info, call *ast.CallExpr, recvName, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return TypeNameIs(info.TypeOf(sel.X), "", recvName)
}

// CalleeName returns the bare called-function name of call: "M" for both
// x.M(...) and M(...), "" otherwise.
func CalleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// Comment directives ------------------------------------------------------

// LineKey identifies one source line of one file.
type LineKey struct {
	File string
	Line int
}

// CommentLines returns, per (file, line), the trailing text of every
// comment beginning with directive (for example "//xrvet:bounded").
// Analyzers use it for annotation escape hatches.
func CommentLines(fset *token.FileSet, files []*ast.File, directive string) map[LineKey]string {
	out := map[LineKey]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, directive); ok {
					pos := fset.Position(c.Pos())
					out[LineKey{File: pos.Filename, Line: pos.Line}] = strings.TrimSpace(rest)
				}
			}
		}
	}
	return out
}

// Annotated reports whether pos's line or the line directly above carries
// a directive collected by CommentLines.
func Annotated(fset *token.FileSet, lines map[LineKey]string, pos token.Pos) bool {
	_, ok := Annotation(fset, lines, pos)
	return ok
}

// Annotation returns the trailing justification text of the directive on
// pos's line or the line directly above, and whether one is present. An
// empty string with ok=true is a bare, unjustified escape — analyzers
// that require justifications reject those.
func Annotation(fset *token.FileSet, lines map[LineKey]string, pos token.Pos) (string, bool) {
	p := fset.Position(pos)
	if reason, ok := lines[LineKey{File: p.Filename, Line: p.Line}]; ok {
		return reason, true
	}
	reason, ok := lines[LineKey{File: p.Filename, Line: p.Line - 1}]
	return reason, ok
}

// CalleeObj returns the object a call invokes by name: the function or
// method for f(...) and x.f(...), the variable for a call through a
// function value, nil for any other callee expression.
func CalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// ObjOf returns the object an identifier expression uses or defines, and
// nil for any other expression.
func ObjOf(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// Same-package summaries ----------------------------------------------------

// Func is one function body of a package: a declaration or a literal.
type Func struct {
	Decl *ast.FuncDecl // the declaration; for a literal, the enclosing one or nil
	Type *ast.FuncType
	Body *ast.BlockStmt
	Obj  types.Object // the declared function; nil for a literal
}

// Funcs lists the function declarations with bodies in the pass's files,
// and with lits the function literals too, in source order.
func Funcs(pass *Pass, lits bool) []Func {
	var out []Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, _ := d.(*ast.FuncDecl)
			if fd != nil && fd.Body != nil {
				out = append(out, Func{Decl: fd, Type: fd.Type, Body: fd.Body, Obj: pass.TypesInfo.Defs[fd.Name]})
			}
			if !lits {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, Func{Decl: fd, Type: lit.Type, Body: lit.Body})
				}
				return true
			})
		}
	}
	return out
}

// Fixpoint sweeps summarize over fns until a whole sweep changes nothing.
// Every analyzer's same-package call summaries run on it (pin and span
// wrappers, transaction openers, error classes, lock levels). Each
// summary only ever moves one way, so helper chains of any depth
// converge.
func Fixpoint(fns []Func, summarize func(Func) (changed bool)) {
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if summarize(fn) {
				changed = true
			}
		}
	}
}

// Package spanend checks that every started obs.Span is ended on every
// path. A call to a method named StartSpan returning a *Span starts a
// span; the span must reach End or EndDur — directly, through a defer,
// or inside a deferred function literal — before the function returns or
// re-enters a loop iteration, on success and error paths alike. A span
// that is never ended never reaches its trace's flight-recorder record,
// so the request's slow-trace evidence silently loses the span and every
// child under it.
//
// The check runs on the oblig engine, as pinleak does. It understands
// the idiomatic shapes the tracing plumbing uses:
//
//   - nil guards: the Span API is nil-safe and span-producing wrappers
//     return nil when tracing is off, so on the `sp == nil` side of a
//     guard the obligation vanishes;
//   - defer end, including `defer sp.End()` and defers of function
//     literals whose body ends the span;
//   - aliases: `sp2 := sp` moves the obligation to sp2;
//   - ownership transfer: returning the span (which marks the function
//     as a span-returning wrapper whose callers inherit the obligation),
//     assigning it to a field, passing it to another function, storing
//     it in a composite literal, or capturing it in a closure;
//   - goroutine bodies: function literals are checked as functions in
//     their own right.
//
// Matching is by method name and result type name (StartSpan returning a
// named type Span), so analysistest packages can model the obs API with
// local stand-in types. `//xrvet:spanend-ignore` on a function
// declaration suppresses the check for that function.
package spanend

import (
	"go/ast"
	"go/types"

	"xrtree/internal/analysis"
	"xrtree/internal/analysis/oblig"
)

// Analyzer is the spanend analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc:  "check that every started obs.Span is ended (End/EndDur) on all paths",
	Run:  protocol.Run,
}

var protocol = &oblig.Protocol{
	Name: "spanend",
	Acquire: func(pass *analysis.Pass, call *ast.CallExpr) (oblig.Site, bool) {
		started := analysis.CalleeName(call) == "StartSpan" && isSpan(pass.TypesInfo.TypeOf(call))
		return oblig.Site{Arg: -1, Res: 0, Data: 0}, started
	},
	Release: func(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "End" && sel.Sel.Name != "EndDur") {
			return nil
		}
		if _, ok := sel.X.(*ast.Ident); !ok || !isSpan(pass.TypesInfo.TypeOf(sel.X)) {
			return nil
		}
		return sel.X
	},
	Alias:    isSpan,
	Captures: true,
	Messages: oblig.Messages{
		Discard:   "span leak: started span from %s is discarded — end it or hand it to an owner",
		Return:    "span leak: %s started at line %d is not ended on this return path",
		Loop:      "span leak: %s started at line %d is not ended when the loop repeats",
		Overwrite: "span leak: %s is overwritten while still unended (started at line %d)",
	},
}

func isSpan(t types.Type) bool { return analysis.TypeNameIs(t, "", "Span") }

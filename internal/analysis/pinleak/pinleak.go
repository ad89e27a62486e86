// Package pinleak checks that every buffer-pool pin is released on every
// path. A pinning Pool method — Fetch, FetchTraced, FetchHeld,
// FetchHeldTraced, FetchNew or FetchNewHeld — or a package-local wrapper
// returning pinned page data (core's fetch, fetchNew, fetchStab) pins a
// page; the pin must reach Unpin, UnpinTx, Discard, DiscardTx or a
// package-local wrapper releasing its argument's pin (core's unpin) —
// directly, through a defer, or by handing the page id to another
// function of the same package that assumes ownership — before the
// function returns or re-enters a loop iteration.
//
// The check runs on the oblig engine. It understands the idiomatic
// shapes the storage layers use:
//
//   - error guards: after `data, err := pool.Fetch(id)`, the pin exists
//     only on the err == nil side of a guard on that same err variable;
//   - defer release, including `defer pool.Unpin(id, false)` and defers
//     of function literals whose body releases the pin;
//   - releases in any expression position: `return pool.Unpin(id, true)`,
//     `if err := pool.Unpin(id, false); err != nil`, `err = pool.Unpin(…)`,
//     and of ids that are selectors: `t.unpin(loc.page, true)`;
//   - ownership transfer: passing the page id to a same-package call,
//     storing the data in a variable, field or composite literal, or
//     returning the data (which marks the function as a pin-returning
//     wrapper whose callers then inherit the obligation). Passing the id
//     to another package — fmt.Errorf, a latch table, a tracer — takes
//     nothing over, and neither do the pinless FetchCopy, FetchCopyTraced,
//     TryFetchCopy and Prefetch.
//
// Matching is by type and method name (a named type Pool with these
// methods), so analysistest packages can model the pool locally.
// `//xrvet:pinleak-ignore` on a function declaration suppresses the check
// for that function.
package pinleak

import (
	"go/ast"

	"xrtree/internal/analysis"
	"xrtree/internal/analysis/oblig"
)

// Analyzer is the pinleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "pinleak",
	Doc:  "check that every buffer-pool Fetch/FetchNew is paired with Unpin/Discard on all paths",
	Run:  protocol.Run,
}

// acquires locates each pinning method's page id: an argument, or, for
// the FetchNew forms that mint a page, the first result.
var acquires = map[string]oblig.Site{
	"Fetch":           {Arg: 0, Res: -1, Data: 0},
	"FetchTraced":     {Arg: 0, Res: -1, Data: 0},
	"FetchHeld":       {Arg: 1, Res: -1, Data: 0},
	"FetchHeldTraced": {Arg: 1, Res: -1, Data: 0},
	"FetchNew":        {Arg: -1, Res: 0, Data: 1},
	"FetchNewHeld":    {Arg: -1, Res: 0, Data: 1},
}

// releases maps each releasing method to its page-id argument.
var releases = map[string]int{"Unpin": 0, "Discard": 0, "UnpinTx": 1, "DiscardTx": 1}

// advisory methods read page ids without any pin obligation: pinless
// copies and readahead hints neither release nor take over a pin.
var advisory = map[string]bool{"FetchCopy": true, "FetchCopyTraced": true, "TryFetchCopy": true, "Prefetch": true}

var protocol = &oblig.Protocol{
	Name: "pinleak",
	Acquire: func(pass *analysis.Pass, call *ast.CallExpr) (oblig.Site, bool) {
		s, ok := acquires[poolMethod(pass, call)]
		return s, ok
	},
	Release: func(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
		if i, ok := releases[poolMethod(pass, call)]; ok && i < len(call.Args) {
			return call.Args[i]
		}
		return nil
	},
	Transfer: func(pass *analysis.Pass, call *ast.CallExpr, acquires bool) bool {
		// Pin counts nest, so a second fetch of a pinned page takes nothing
		// over; nor can code in another package assume a pin.
		if acquires || advisory[poolMethod(pass, call)] {
			return false
		}
		obj := analysis.CalleeObj(pass.TypesInfo, call)
		return obj == nil || obj.Pkg() == nil || obj.Pkg() == pass.Pkg
	},
	ErrGuard: true,
	// The pool's own methods implement pinning rather than consume it.
	Skip: func(pass *analysis.Pass, fn *ast.FuncDecl) bool {
		if fn.Recv == nil || len(fn.Recv.List) == 0 {
			return false
		}
		_, acq := acquires[fn.Name.Name]
		_, rel := releases[fn.Name.Name]
		return (acq || rel || advisory[fn.Name.Name]) && analysis.TypeNameIs(pass.TypesInfo.TypeOf(fn.Recv.List[0].Type), "", "Pool")
	},
	Messages: oblig.Messages{
		Discard:   "pin leak: pinned result of %s is discarded",
		Return:    "pin leak: %s fetched at line %d is still pinned on this return path",
		Loop:      "pin leak: %s fetched at line %d is still pinned when the loop repeats",
		Overwrite: "pin leak: %s is overwritten while still pinned (fetched at line %d)",
	},
}

// poolMethod returns the method name of a call on a Pool, or "".
func poolMethod(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !analysis.TypeNameIs(pass.TypesInfo.TypeOf(sel.X), "", "Pool") {
		return ""
	}
	return sel.Sel.Name
}

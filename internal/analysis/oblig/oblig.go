// Package oblig is the flow-sensitive obligation walker under the
// pinleak and spanend analyzers. An acquiring call (a buffer-pool fetch,
// a span start) creates an obligation that every path through the
// function must discharge before it returns or re-enters a loop
// iteration: by a releasing call (Unpin, End) — directly, deferred, or in
// a deferred function literal — or by handing the obligation to an owner:
// passing its handle to a call that takes it over, storing its value in a
// variable, field or composite literal, or returning it.
//
// A Protocol supplies what differs between disciplines: which calls
// acquire, release or take over an obligation, which variable guards it
// and on which side of a nil test it vanishes, whether assigning a held
// value moves the obligation or hands it off, whether a capturing closure
// takes it over, and the diagnostic texts. The engine supplies the walk:
// statements, branches, loops and their back edges, switch and select
// clauses, defer and go, outcome merging, and the overwrite and discard
// reports. It also discovers same-package wrappers — functions that
// return an obligation to their caller, or release one whose handle their
// caller passes in — and runs that discovery to a fixpoint before
// reporting anything.
//
// The walk keeps one state per distinct path, capped at 64 per statement.
// A goto abandons its path rather than guess where it lands.
package oblig

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math/bits"
	"strconv"

	"xrtree/internal/analysis"
)

// Site locates an acquisition's obligation among a call's operands. The
// handle that later releases it is argument Arg, or result Res when Arg
// is negative; result Data, when not negative, is the owned value whose
// hand-off also discharges it.
type Site struct{ Arg, Res, Data int }

// Messages are a protocol's diagnostic formats.
type Messages struct {
	Discard   string // %s: the acquiring call's function
	Return    string // %s, %d: handle, acquisition line
	Loop      string // %s, %d: handle, acquisition line
	Overwrite string // %s, %d: handle, acquisition line
}

// Protocol is one acquire/release discipline. Calls to discovered
// wrappers acquire and release on top of what Acquire and Release match.
type Protocol struct {
	// Name is the analyzer's name; `//xrvet:<Name>-ignore` on a function
	// declaration exempts it.
	Name    string
	Acquire func(pass *analysis.Pass, call *ast.CallExpr) (Site, bool)
	// Release returns the handle whose obligation call discharges, or nil.
	Release func(pass *analysis.Pass, call *ast.CallExpr) ast.Expr
	// Transfer reports whether call takes over the obligations of the
	// handles passed to it; acquires says whether call is an acquisition.
	// Nil means every call does.
	Transfer func(pass *analysis.Pass, call *ast.CallExpr, acquires bool) bool
	// ErrGuard: the obligation exists only where the acquisition's error
	// result is nil. Otherwise it exists only where the handle is non-nil.
	ErrGuard bool
	// Alias, when set, moves the obligation of a held value assigned to an
	// identifier whose type it accepts; any other assignment of a held
	// value hands the obligation off.
	Alias func(types.Type) bool
	// Captures: a function literal capturing a held value takes it over.
	Captures bool
	// Skip exempts function declarations (the protocol's own primitives).
	Skip func(pass *analysis.Pass, fn *ast.FuncDecl) bool
	Messages
}

// Run checks one package; it is the protocol's analysis.Analyzer.Run.
func (p *Protocol) Run(pass *analysis.Pass) (any, error) {
	c := &checker{
		p:         p,
		pass:      pass,
		acquirers: map[types.Object]Site{},
		releasers: map[types.Object]Site{},
		reported:  map[string]bool{},
	}
	ignore := analysis.CommentLines(pass.Fset, pass.Files, "//xrvet:"+p.Name+"-ignore")
	var fns []analysis.Func
	for _, fn := range analysis.Funcs(pass, true) {
		if d := fn.Decl; d != nil && (analysis.Annotated(pass.Fset, ignore, d.Pos()) || p.Skip != nil && p.Skip(pass, d)) {
			continue
		}
		fns = append(fns, fn)
	}
	// Releasing wrappers are inferred only once every acquisition is
	// known: before then, a function releasing a parameter it acquired
	// through a wrapper not yet discovered would look like one. Where
	// every call takes handles over, they would add nothing.
	analysis.Fixpoint(fns, c.check)
	if p.Transfer != nil {
		c.releasing = true
		analysis.Fixpoint(fns, c.check)
	}
	c.report = true
	for _, fn := range fns {
		c.check(fn)
	}
	return nil, nil
}

type checker struct {
	p    *Protocol
	pass *analysis.Pass
	// acquirers maps a wrapper to where its calls' obligations are;
	// releasers maps a wrapper to the parameter (Arg) whose obligation it
	// releases.
	acquirers map[types.Object]Site
	releasers map[types.Object]Site
	changed   bool
	releasing bool
	report    bool
	reported  map[string]bool
}

// oblig is one undischarged obligation on one path.
type oblig struct {
	key   string       // source text of the handle
	id    types.Object // the handle, when it is a plain identifier
	data  types.Object // the owned value
	guard types.Object // nil-tested to decide whether the obligation exists
	pos   token.Pos    // acquisition site
}

type state []oblig

func (st state) sig() string {
	s := ""
	for _, o := range st {
		s += o.key
		if o.guard != nil {
			s += "?"
		}
		s += "@" + strconv.Itoa(int(o.pos)) + ";"
	}
	return s
}

// drop returns st without the obligations match selects. States are
// never modified in place, so st itself is returned when none match.
func (st state) drop(match func(oblig) bool) state {
	out := st
	for i := len(st) - 1; i >= 0; i-- {
		if match(st[i]) {
			out = append(out[:i:i], out[i+1:]...)
		}
	}
	return out
}

// update returns st with f applied to the obligations match selects,
// copying st only if there are any.
func (st state) update(match func(oblig) bool, f func(*oblig)) state {
	out, copied := st, false
	for i := range out {
		if match(out[i]) {
			if !copied {
				out, copied = append(state(nil), st...), true
			}
			f(&out[i])
		}
	}
	return out
}

func byID(obj types.Object) func(oblig) bool   { return func(o oblig) bool { return o.id == obj } }
func byData(obj types.Object) func(oblig) bool { return func(o oblig) bool { return o.data == obj } }

type outKind int

const (
	outFall outKind = iota
	outBreak
	outContinue
	outTerm // return, panic, goto: path accounted for or abandoned
)

type outcome struct {
	kind outKind
	st   state
}

// merge dedupes outcomes by (kind, state) and caps path blowup.
func merge(outs []outcome) []outcome {
	seen := map[string]bool{}
	var res []outcome
	for _, o := range outs {
		key := strconv.Itoa(int(o.kind)) + "|" + o.st.sig()
		if seen[key] {
			continue
		}
		seen[key] = true
		res = append(res, o)
		if len(res) >= 64 {
			break
		}
	}
	return res
}

func fall(st state) []outcome { return []outcome{{outFall, st}} }

// walker analyzes one function body.
type walker struct {
	c      *checker
	info   *types.Info
	fn     types.Object // nil for function literals
	params map[types.Object]int
	// acquired and released are bit sets of the parameters the body
	// acquires an obligation on, and of those it releases without holding
	// one.
	acquired, released uint64
}

// check walks one function and reports whether it changed a summary.
func (c *checker) check(fn analysis.Func) bool {
	c.changed = false
	w := &walker{c: c, info: c.pass.TypesInfo, fn: fn.Obj, params: map[types.Object]int{}}
	if fn.Obj != nil {
		params := fn.Obj.Type().(*types.Signature).Params()
		for i := range params.Len() {
			w.params[params.At(i)] = i
		}
	}
	for _, o := range w.list(fn.Body.List, nil) {
		if o.kind == outFall { // falling off the end is an implicit return
			w.leaks(o.st, fn.Body.Rbrace)
		}
	}
	if cand := w.released &^ w.acquired; c.releasing && cand != 0 {
		w.record(c.releasers, Site{Arg: bits.TrailingZeros64(cand), Res: -1, Data: -1})
	}
	return c.changed
}

func (w *walker) list(stmts []ast.Stmt, st state) []outcome {
	if len(stmts) == 0 {
		return fall(st)
	}
	var res []outcome
	for _, o := range w.stmt(stmts[0], st) {
		if o.kind == outFall {
			res = append(res, w.list(stmts[1:], o.st)...)
		} else {
			res = append(res, o)
		}
	}
	return merge(res)
}

func (w *walker) stmt(s ast.Stmt, st state) []outcome {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return fall(w.assign(st, s.Lhs, s.Rhs, s.Pos()))
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					st = w.assign(st, lhs, vs.Values, s.Pos())
				}
			}
		}
		return fall(st)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if analysis.CalleeName(call) == "panic" {
				return []outcome{{outTerm, st}}
			}
			if _, ok := w.acquire(call); ok {
				w.reportf(s.Pos(), w.c.p.Discard, types.ExprString(call.Fun))
			}
		}
		return fall(w.scan(st, s.X))
	case *ast.ReturnStmt:
		st = w.returned(w.scan(st, s.Results...), s.Results)
		w.leaks(st, s.Pos())
		return []outcome{{outTerm, st}}
	case *ast.DeferStmt:
		return fall(w.deferred(st, s.Call))
	case *ast.GoStmt:
		return fall(w.deferred(st, s.Call))
	case *ast.IfStmt:
		st = w.scan(w.simple(s.Init, st), s.Cond)
		thenSt, elseSt := w.guard(st, s.Cond)
		res := w.list(s.Body.List, thenSt)
		if s.Else != nil {
			return merge(append(res, w.stmt(s.Else, elseSt)...))
		}
		return merge(append(res, outcome{outFall, elseSt}))
	case *ast.ForStmt:
		return w.loop(w.scan(w.simple(s.Init, st), s.Cond), s.Body, s.Cond != nil)
	case *ast.RangeStmt:
		return w.loop(w.scan(st, s.X), s.Body, true)
	case *ast.SwitchStmt:
		return w.clauses(s.Body, w.scan(w.simple(s.Init, st), s.Tag), false)
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Body, w.simple(s.Init, st), false)
	case *ast.SelectStmt:
		return w.clauses(s.Body, st, true)
	case *ast.BlockStmt:
		return w.list(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			return []outcome{{outBreak, st}}
		case token.CONTINUE:
			return []outcome{{outContinue, st}}
		case token.FALLTHROUGH:
			return fall(st)
		}
		return []outcome{{outTerm, st}} // goto: abandon the path
	case *ast.SendStmt:
		return fall(w.scan(st, s.Chan, s.Value))
	}
	return fall(st)
}

// simple runs a non-branching statement (an if/for/switch init), if any,
// and returns its fall-through state.
func (w *walker) simple(s ast.Stmt, st state) state {
	if s == nil {
		return st
	}
	for _, o := range w.stmt(s, st) {
		if o.kind == outFall {
			return o.st
		}
	}
	return st
}

// clauses walks switch and select bodies. Unless the statement is
// exhaustive (a select, or a switch with a default), no clause running
// falls through with the entry state.
func (w *walker) clauses(body *ast.BlockStmt, st state, exhaustive bool) []outcome {
	var res []outcome
	for _, s := range body.List {
		switch cl := s.(type) {
		case *ast.CaseClause:
			exhaustive = exhaustive || cl.List == nil
			res = append(res, w.list(cl.Body, w.scan(st, cl.List...))...)
		case *ast.CommClause:
			res = append(res, w.list(cl.Body, w.simple(cl.Comm, st))...)
		}
	}
	if !exhaustive {
		res = append(res, outcome{outFall, st})
	}
	for i, o := range res {
		if o.kind == outBreak { // break leaves the switch, not a loop
			res[i].kind = outFall
		}
	}
	return merge(res)
}

// guard splits the state on a nil test of a guard variable: on the side
// where the acquisition failed (its error is non-nil, or its handle is
// nil), the obligation never existed.
func (w *walker) guard(st state, cond ast.Expr) (thenSt, elseSt state) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return st, st
	}
	x := be.X
	if isNil(x) {
		x = be.Y
	} else if !isNil(be.Y) {
		return st, st
	}
	obj := w.obj(x)
	if obj == nil {
		return st, st
	}
	gone := st.drop(func(o oblig) bool { return o.guard == obj })
	if (be.Op == token.EQL) != w.c.p.ErrGuard {
		return gone, st
	}
	return st, gone
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// loop walks a loop body. Obligations acquired in the body must not
// survive the back edge: they are reported there once and dropped, so the
// after-loop paths do not report the same acquisition again. A loop that
// can exit at its head also falls through with its entry state.
func (w *walker) loop(st state, body *ast.BlockStmt, exits bool) []outcome {
	inBody := func(o oblig) bool { return o.pos > body.Lbrace && o.pos < body.Rbrace }
	var res []outcome
	for _, o := range w.list(body.List, st) {
		switch o.kind {
		case outFall, outContinue:
			for _, ob := range o.st {
				if inBody(ob) {
					w.reportf(ob.pos, w.c.p.Loop, ob.key, w.line(ob.pos))
				}
			}
			if exits {
				res = append(res, outcome{outFall, o.st.drop(inBody)})
			}
		case outBreak:
			res = append(res, outcome{outFall, o.st})
		default:
			res = append(res, o)
		}
	}
	if exits {
		res = append(res, outcome{outFall, st})
	}
	return merge(res)
}

// assign processes one (possibly multi-value) assignment: releases and
// transfers on the right, hand-offs of held values, overwrites and guard
// bookkeeping on the left, then the acquisition, if the right side is one.
func (w *walker) assign(st state, lhs, rhs []ast.Expr, pos token.Pos) state {
	st = w.scan(st, rhs...)
	type move struct {
		from types.Object
		to   *ast.Ident
	}
	var moves []move
	for i, r := range rhs {
		obj := w.obj(r)
		if obj == nil || len(st.drop(byData(obj))) == len(st) {
			continue
		}
		if w.c.p.Alias != nil && len(lhs) == len(rhs) {
			if to, ok := lhs[i].(*ast.Ident); ok && to.Name != "_" && w.obj(to) != nil && w.c.p.Alias(w.info.TypeOf(to)) {
				moves = append(moves, move{obj, to})
				continue
			}
		}
		st = st.drop(byData(obj))
	}
	for _, l := range lhs {
		obj := w.obj(l)
		if obj == nil {
			continue
		}
		for _, o := range st {
			if o.id == obj {
				w.reportf(pos, w.c.p.Overwrite, o.key, w.line(o.pos))
			}
		}
		// Reassigning an acquisition's error variable severs the guard:
		// the obligation is definitely held from here on.
		st = st.drop(byID(obj)).update(func(o oblig) bool { return o.guard == obj }, func(o *oblig) { o.guard = nil })
	}
	for _, m := range moves {
		to := w.obj(m.to)
		st = st.update(byData(m.from), func(o *oblig) {
			if o.guard == o.id {
				o.guard = to
			}
			o.key, o.id, o.data = m.to.Name, to, to
		})
	}
	if len(rhs) != 1 {
		return st
	}
	call, ok := rhs[0].(*ast.CallExpr)
	if !ok {
		return st
	}
	s, ok := w.acquire(call)
	if !ok {
		return st
	}
	var h ast.Expr
	switch {
	case s.Arg >= 0 && s.Arg < len(call.Args):
		h = call.Args[s.Arg]
	case s.Arg < 0 && s.Res >= 0 && s.Res < len(lhs):
		h = lhs[s.Res]
		if id, ok := h.(*ast.Ident); ok && id.Name == "_" {
			w.reportf(pos, w.c.p.Discard, types.ExprString(call.Fun))
			return st
		}
	default:
		return st
	}
	o := oblig{key: types.ExprString(h), id: w.obj(h), pos: pos}
	if j, ok := w.params[o.id]; ok {
		w.acquired |= 1 << j
	}
	if s.Data >= 0 && s.Data < len(lhs) {
		o.data = w.obj(lhs[s.Data])
	}
	if !w.c.p.ErrGuard {
		o.guard = o.id
	} else if tup, ok := w.info.TypeOf(call).(*types.Tuple); ok && tup.Len() == len(lhs) &&
		types.Identical(tup.At(tup.Len()-1).Type(), types.Universe.Lookup("error").Type()) {
		o.guard = w.obj(lhs[len(lhs)-1])
	}
	return append(st[:len(st):len(st)], o)
}

// returned hands obligations whose handle or value is returned to the
// caller. A declared function doing so becomes an acquiring wrapper, as
// does one returning an acquisition whose handle is a parameter or a
// result: `return fetch(id)`, `return c.StartSpan(name), tr`.
func (w *walker) returned(st state, results []ast.Expr) state {
	for i, r := range results {
		call, ok := r.(*ast.CallExpr)
		if !ok {
			continue
		}
		s, ok := w.acquire(call)
		if !ok {
			continue
		}
		if s.Arg >= 0 {
			if s.Arg >= len(call.Args) {
				continue
			}
			j, ok := w.params[w.obj(call.Args[s.Arg])]
			if !ok {
				continue
			}
			s.Arg = j
		}
		w.record(w.c.acquirers, Site{s.Arg, shift(s.Res, i), shift(s.Data, i)})
	}
	return st.drop(func(o oblig) bool {
		s := Site{Arg: -1, Res: w.index(results, o.id), Data: w.index(results, o.data)}
		if s.Res < 0 && s.Data < 0 {
			return false
		}
		if j, ok := w.params[o.id]; ok {
			s.Arg = j
		}
		if s.Arg >= 0 || s.Res >= 0 {
			w.record(w.c.acquirers, s)
		}
		return true
	})
}

func shift(idx, by int) int {
	if idx < 0 {
		return idx
	}
	return idx + by
}

func (w *walker) index(exprs []ast.Expr, obj types.Object) int {
	for i, e := range exprs {
		if obj != nil && w.obj(e) == obj {
			return i
		}
	}
	return -1
}

// record adds a wrapper summary for the function being walked. The first
// summary found sticks, so discovery only grows and the fixpoint ends.
func (w *walker) record(m map[types.Object]Site, s Site) {
	if w.fn == nil {
		return
	}
	if _, ok := m[w.fn]; !ok {
		m[w.fn] = s
		w.c.changed = true
	}
}

// deferred handles defer and go: a deferred release, or a deferred
// closure releasing, covers the obligation for the rest of the function.
func (w *walker) deferred(st state, call *ast.CallExpr) state {
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return w.scan(st, call)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if h := w.release(c); h != nil {
				st = w.discharge(st, h)
			}
		}
		return true
	})
	return st
}

// scan folds the releases and hand-offs found anywhere in exprs into st.
// Function-literal bodies run later or never and are checked as functions
// of their own; under Captures, one capturing a held value takes it over.
func (w *walker) scan(st state, exprs ...ast.Expr) state {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if w.c.p.Captures {
					ast.Inspect(n.Body, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							if obj := w.obj(id); obj != nil {
								st = st.drop(func(o oblig) bool { return o.id == obj || o.data == obj })
							}
						}
						return true
					})
				}
				return false
			case *ast.CallExpr:
				if h := w.release(n); h != nil {
					st = w.discharge(st, h)
					return true
				}
				if tv, ok := w.info.Types[n.Fun]; ok && tv.IsType() {
					return true // conversions read values; they take nothing over
				}
				_, acq := w.acquire(n)
				if w.c.p.Transfer == nil || w.c.p.Transfer(w.c.pass, n, acq) {
					for _, a := range n.Args {
						if obj := w.obj(a); obj != nil {
							st = st.drop(byID(obj))
						}
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						el = kv.Value
					}
					if obj := w.obj(el); obj != nil {
						st = st.drop(byData(obj))
					}
				}
			}
			return true
		})
	}
	return st
}

// discharge releases the most recent obligation on handle h (pin counts
// nest LIFO). A declared function releasing a parameter it never acquires
// an obligation on becomes a releasing wrapper.
func (w *walker) discharge(st state, h ast.Expr) state {
	obj, key := w.obj(h), types.ExprString(h)
	for i := len(st) - 1; i >= 0; i-- {
		if (obj != nil && st[i].id == obj) || st[i].key == key {
			return append(st[:i:i], st[i+1:]...)
		}
	}
	if j, ok := w.params[obj]; ok {
		w.released |= 1 << j
	}
	return st
}

func (w *walker) acquire(call *ast.CallExpr) (Site, bool) {
	if s, ok := w.c.p.Acquire(w.c.pass, call); ok {
		return s, true
	}
	s, ok := w.c.acquirers[analysis.CalleeObj(w.info, call)]
	return s, ok
}

func (w *walker) release(call *ast.CallExpr) ast.Expr {
	if h := w.c.p.Release(w.c.pass, call); h != nil {
		return h
	}
	if s, ok := w.c.releasers[analysis.CalleeObj(w.info, call)]; ok && s.Arg < len(call.Args) {
		return call.Args[s.Arg]
	}
	return nil
}

func (w *walker) obj(e ast.Expr) types.Object { return analysis.ObjOf(w.info, e) }

func (w *walker) leaks(st state, at token.Pos) {
	for _, o := range st {
		w.reportf(at, w.c.p.Return, o.key, w.line(o.pos))
	}
}

func (w *walker) reportf(at token.Pos, format string, args ...any) {
	if !w.c.report {
		return
	}
	msg := fmt.Sprintf(format, args...)
	key := strconv.Itoa(int(at)) + "|" + msg
	if !w.c.reported[key] {
		w.c.reported[key] = true
		w.c.pass.Report(analysis.Diagnostic{Pos: at, Message: msg})
	}
}

func (w *walker) line(pos token.Pos) int { return w.c.pass.Fset.Position(pos).Line }

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// SharedWriteConfig scopes the sharedwrite analyzer.
type SharedWriteConfig struct {
	// Runners are FuncRefs of pool primitives whose func-typed arguments
	// execute on worker goroutines (e.g. the engine pool's submit), so the
	// closures passed to them are held to the same confinement rules as
	// go-statement bodies.
	Runners []FuncRef
}

// SharedWrite returns the sharedwrite analyzer: a closure that runs on a
// worker goroutine — the body of a go statement, or a function literal
// passed to a configured pool primitive — must not write captured state
// in a scheduling-dependent way. A write is sanctioned when it is
// confined (the target is indexed by a variable declared inside the
// closure, the per-index-slot idiom) or serialized (the write happens
// between Lock and Unlock calls on a sync.Mutex/RWMutex). Everything
// else races completion order into the result and must instead be
// reduced in submission order after the pool drains.
func SharedWrite(cfg SharedWriteConfig) *Analyzer {
	return &Analyzer{
		Name: "sharedwrite",
		Doc: "forbid unconfined writes to captured variables from worker " +
			"goroutines; confine to per-index slots, guard with a mutex, or " +
			"reduce in submission order",
		Run: func(pass *Pass) { runSharedWrite(pass, cfg) },
	}
}

func runSharedWrite(pass *Pass, cfg SharedWriteConfig) {
	runners := make(map[string]bool, len(cfg.Runners))
	for _, r := range cfg.Runners {
		runners[r] = true
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(e.Call.Fun).(*ast.FuncLit); ok {
					checkWorkerLit(pass, lit, "go statement")
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass.Pkg.Info, e)
				if fn == nil || !runners[funcRefOf(fn)] {
					return true
				}
				for _, arg := range e.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						checkWorkerLit(pass, lit, "worker callback passed to "+fn.Name())
					}
				}
			}
			return true
		})
	}
}

// calleeFunc resolves a call's target function object, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcRefOf renders a function object's FuncRef.
func funcRefOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rn := recvTypeName(sig.Recv().Type()); rn != "" {
			name = rn + "." + name
		}
	}
	return fn.Pkg().Path() + ":" + name
}

// checkWorkerLit flags unconfined, unguarded writes to captured state
// inside one worker-goroutine literal.
func checkWorkerLit(pass *Pass, lit *ast.FuncLit, context string) {
	info := pass.Pkg.Info
	locks := collectLockSpans(info, lit)
	declaredInside := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
	}
	reportWrite := func(target ast.Expr, pos token.Pos, desc string) {
		if locks.heldAt(pos) {
			return
		}
		pass.Reportf(pos,
			"unconfined write to captured %s from a %s; confine it to a per-index slot, guard it with the mutex, or reduce in submission order after the pool drains",
			desc, context)
	}
	checkTarget := func(target ast.Expr, pos token.Pos) {
		switch t := ast.Unparen(target).(type) {
		case *ast.Ident:
			if obj := objOf(info, t); obj != nil && !declaredInside(obj) {
				if _, ok := obj.(*types.Var); ok {
					reportWrite(t, pos, "variable "+t.Name)
				}
			}
		case *ast.IndexExpr:
			base := baseIdent(t.X)
			if base == nil {
				return
			}
			obj := objOf(info, base)
			if obj == nil || declaredInside(obj) {
				return
			}
			// The per-index-slot idiom: element writes keyed by an index
			// declared inside the literal touch disjoint memory per
			// worker item and need no synchronization.
			if indexConfined(info, t.Index, declaredInside) {
				return
			}
			reportWrite(t, pos, "element of "+base.Name+" through an outside index")
		case *ast.SelectorExpr:
			if base := baseIdent(t); base != nil {
				if obj := objOf(info, base); obj != nil && !declaredInside(obj) {
					reportWrite(t, pos, "field "+base.Name+"."+t.Sel.Name)
				}
			}
		case *ast.StarExpr:
			if base := baseIdent(t.X); base != nil {
				if obj := objOf(info, base); obj != nil && !declaredInside(obj) {
					reportWrite(t, pos, "pointee of "+base.Name)
				}
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			if e.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range e.Lhs {
				checkTarget(lhs, lhs.Pos())
			}
		case *ast.IncDecStmt:
			checkTarget(e.X, e.X.Pos())
		}
		return true
	})
}

// baseIdent returns the leftmost identifier of a selector/index chain.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// indexConfined reports whether every identifier in an index expression
// is declared inside the worker literal.
func indexConfined(info *types.Info, idx ast.Expr, declaredInside func(types.Object) bool) bool {
	confined := true
	ast.Inspect(idx, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !confined {
			return confined
		}
		if obj := objOf(info, id); obj != nil {
			if v, isVar := obj.(*types.Var); isVar && !v.IsField() && !declaredInside(obj) {
				confined = false
			}
		}
		return confined
	})
	return confined
}

// lockSpans approximates mutex-held regions inside one literal by source
// order: Lock raises the held count from its position on, Unlock lowers
// it, and deferred Unlocks are ignored (they keep the region held to the
// end). The approximation is linear in source order, which matches the
// straight-line Lock…Unlock critical sections the rule sanctions.
type lockSpans struct {
	events []lockEvent
}

type lockEvent struct {
	pos   token.Pos
	delta int
}

func collectLockSpans(info *types.Info, lit *ast.FuncLit) lockSpans {
	var spans lockSpans
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if isMutexCall(info, d.Call, "Unlock", "RUnlock") {
				return false // deferred unlock keeps the span held
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isMutexCall(info, call, "Lock", "RLock"):
			spans.events = append(spans.events, lockEvent{pos: call.Pos(), delta: 1})
		case isMutexCall(info, call, "Unlock", "RUnlock"):
			spans.events = append(spans.events, lockEvent{pos: call.Pos(), delta: -1})
		}
		return true
	})
	sort.Slice(spans.events, func(i, j int) bool { return spans.events[i].pos < spans.events[j].pos })
	return spans
}

// heldAt reports whether a mutex is held at pos under the source-order
// approximation.
func (s lockSpans) heldAt(pos token.Pos) bool {
	held := 0
	for _, e := range s.events {
		if e.pos >= pos {
			break
		}
		held += e.delta
	}
	return held > 0
}

// isMutexCall reports whether call invokes one of the named methods on a
// sync.Mutex or sync.RWMutex receiver.
func isMutexCall(info *types.Info, call *ast.CallExpr, names ...string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	match := false
	for _, name := range names {
		if sel.Sel.Name == name {
			match = true
			break
		}
	}
	if !match {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch recvTypeName(sig.Recv().Type()) {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

package lint

import (
	"go/ast"
	"go/types"
)

// HotallocConfig declares the roots of the module's zero-allocation hot
// set. The hot set itself is derived: every function, method, and closure
// transitively reachable from a root through the call graph is hot,
// minus the declared cold cut points. Nothing else is hand-maintained —
// refactors that move or extract code cannot silently drop it from
// coverage, because coverage follows calls.
type HotallocConfig struct {
	// MatPath is the import path of the matrix package whose allocating
	// API is forbidden inside hot functions (each allocating call has an
	// in-place *Into twin).
	MatPath string
	// Roots are the FuncRefs the hot set is derived from: the per-tick
	// pipeline entry and the inference kernels.
	Roots []FuncRef
	// Cold are FuncRefs cut out of the traversal: sanctioned episodic or
	// lazy-growth paths (per-episode triage, one-time workspace growth)
	// that own the pipeline's cold allocations. Neither a cold function
	// nor anything reachable only through it is checked.
	Cold []FuncRef
}

// Hotalloc returns the hotalloc analyzer: inside the derived hot set,
// calls to the mat package's allocating constructors/solvers, calls to
// its allocating value-returning methods, and the make builtin are all
// forbidden — they allocate on every tick and regress the zero-allocation
// steady state. The sanctioned form is a workspace preallocated in the
// type's constructor plus the *Into kernels. Two further allocation
// sources are flagged in hot code: converting a concrete non-pointer
// value to an interface (boxing allocates), and closures that escape
// their defining function (closure capture allocates at creation).
// append is deliberately not flagged: appends into capacity-retaining
// reused buffers are amortized allocation-free and are the idiom for
// variable-length scratch. panic argument subtrees are exempt — the
// panic path is terminal, not hot.
func Hotalloc(cfg HotallocConfig) *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc: "forbid allocation in the hot set derived from the declared " +
			"roots: no make, no allocating " + cfg.MatPath + " calls, no " +
			"interface boxing, no escaping closures; preallocate workspace " +
			"in the constructor and use the *Into kernels",
		RunProgram: func(pass *ProgramPass) { runHotalloc(pass, cfg) },
	}
}

// hotallocFuncs are the mat package's allocating package-level
// constructors and solvers.
var hotallocFuncs = map[string]bool{
	"New":      true,
	"NewVec":   true,
	"NewLU":    true,
	"Identity": true,
	"Diag":     true,
	"FromRows": true,
	"SolveMat": true,
	"FactorLU": true,
}

// hotallocMethods are the allocating value-returning methods on the mat
// package's types; each has an allocation-free *Into twin.
var hotallocMethods = map[string]bool{
	"Mul":        true,
	"MulVec":     true,
	"Add":        true,
	"Sub":        true,
	"Scale":      true,
	"T":          true,
	"Clone":      true,
	"Symmetrize": true,
}

func runHotalloc(pass *ProgramPass, cfg HotallocConfig) {
	reach, order := hotSet(pass, "hotalloc", cfg.Roots, cfg.Cold)
	for _, n := range order {
		checkHotNode(pass, cfg, reach, n)
	}
}

// hotSet derives a hot set: every node reachable from roots without
// passing through a cold cut point, with parent pointers for Chain and
// the deterministic visit order. An entry of either list that names no
// module function is reported under the analyzer's name. hotalloc and
// hotcopy share it, so both police the same set.
func hotSet(pass *ProgramPass, analyzer string, rootRefs, coldRefs []FuncRef) (map[*CGNode]ReachEntry, []*CGNode) {
	graph := pass.Prog.Graph
	cold := make(map[*CGNode]bool, len(coldRefs))
	for _, ref := range coldRefs {
		if n := graph.Node(ref); n != nil {
			cold[n] = true
		} else {
			pass.Reportf(pass.Prog.Pkgs[0].Files[0].Pos(),
				"%s cold entry %q does not resolve to a module function; update the analyzer configuration", analyzer, ref)
		}
	}
	var roots []*CGNode
	for _, ref := range rootRefs {
		n := graph.Node(ref)
		if n == nil {
			pass.Reportf(pass.Prog.Pkgs[0].Files[0].Pos(),
				"%s root %q does not resolve to a module function; update the analyzer configuration", analyzer, ref)
			continue
		}
		roots = append(roots, n)
	}
	return graph.Reachable(roots, func(n *CGNode) bool { return cold[n] })
}

// checkHotNode scans one hot node's body. Nested literals are their own
// hot nodes (reached through containment edges), so the walk stops at
// literal boundaries; escaping literals are flagged here, at their
// definition site in the hot parent.
func checkHotNode(pass *ProgramPass, cfg HotallocConfig, reach map[*CGNode]ReachEntry, n *CGNode) {
	info := n.Pkg.Info
	name := n.DisplayName()
	chain := Chain(reach, n)
	for _, e := range n.Edges {
		if e.Kind == EdgeContains && e.Callee.Escapes {
			pass.Reportf(e.Site,
				"closure escapes hot function %s and allocates at creation (hot path: %s); hoist it into the constructor or bind it to a local variable",
				name, chain)
		}
	}
	ast.Inspect(n.Body(), func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != n.Lit {
			return false // nested literal bodies are their own hot nodes
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if b, ok := info.Uses[fun].(*types.Builtin); ok {
				switch b.Name() {
				case "panic":
					return false // the panic path is terminal, not hot
				case "make":
					pass.Reportf(call.Pos(),
						"make in hot function %s allocates every call (hot path: %s); preallocate the buffer in the constructor and reuse it",
						name, chain)
					return true
				}
			}
		case *ast.SelectorExpr:
			fn, ok := info.Uses[fun.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != cfg.MatPath {
				break
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				break
			}
			if sig.Recv() != nil {
				if hotallocMethods[fn.Name()] {
					pass.Reportf(call.Pos(),
						"allocating mat method %s in hot function %s (hot path: %s); use the in-place %sInto kernel with a workspace destination",
						fn.Name(), name, chain, intoName(fn.Name()))
				}
			} else if hotallocFuncs[fn.Name()] {
				pass.Reportf(call.Pos(),
					"allocating mat call %s in hot function %s (hot path: %s); preallocate in the constructor and reuse the workspace",
					fn.Name(), name, chain)
			}
		}
		checkBoxing(pass, info, call, name, chain)
		return true
	})
}

// checkBoxing flags call arguments that convert a concrete non-pointer
// value to an interface parameter: the conversion boxes, allocating on
// every call. Pointer-shaped values (pointers, channels, maps, funcs) are
// stored directly in the interface word, and constants are staticized by
// the compiler — neither allocates.
func checkBoxing(pass *ProgramPass, info *types.Info, call *ast.CallExpr, name, chain string) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // slice passthrough, no element boxing
			}
			if s, ok := params.At(np - 1).Type().Underlying().(*types.Slice); ok {
				paramT = s.Elem()
			}
		case i < np:
			paramT = params.At(i).Type()
		}
		if paramT == nil || !types.IsInterface(paramT) {
			continue
		}
		argT := info.TypeOf(arg)
		if argT == nil || types.IsInterface(argT) || pointerShaped(argT) {
			continue
		}
		if tv, ok := info.Types[arg]; ok && tv.Value != nil {
			continue // constants convert to static interface data
		}
		pass.Reportf(arg.Pos(),
			"%s boxed into %s in hot function %s allocates every call (hot path: %s); keep the hot path monomorphic or pass a preallocated value",
			types.TypeString(argT, shortQualifier), types.TypeString(paramT, shortQualifier), name, chain)
	}
}

// shortQualifier renders package-qualified type names with the package
// basename only, keeping diagnostics readable.
func shortQualifier(p *types.Package) string { return p.Name() }

// pointerShaped reports whether values of t are stored directly in an
// interface word without allocating.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// intoName maps an allocating method name to its *Into kernel for the
// diagnostic's suggested fix.
func intoName(method string) string {
	if method == "T" {
		return "Transpose"
	}
	return method
}

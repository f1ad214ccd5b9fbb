package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotcopyConfig declares the hot set hotcopy polices (the same roots and
// cold cut points as hotalloc) and its ratchet list.
type HotcopyConfig struct {
	// Roots and Cold derive the hot set exactly as HotallocConfig's do.
	Roots []FuncRef
	Cold  []FuncRef
	// Allow is the ratchet list: hot functions sanctioned to keep their
	// by-value copies, each with a reason. An entry whose function no
	// longer produces a finding is itself reported, so the list can only
	// shrink.
	Allow []CopyAllowance
}

// CopyAllowance sanctions the by-value copies of one hot function. An
// entry for a declared function covers the function literals nested in
// it.
type CopyAllowance struct {
	Func   FuncRef
	Reason string
}

// Hotcopy returns the hotcopy analyzer: inside the hot set derived from
// the declared roots, a value of a non-pointer type larger than
// hotcopyMaxBytes must not be moved by value. It reports such a type as a
// parameter, receiver or result; as a range value variable; and as a local
// variable declared or assigned from an existing value (a variable, field,
// element or dereference). A call result or composite literal is built in place
// and is not reported, and neither is a store into a field, an element or
// through a pointer: keeping state is a copy by design.
func Hotcopy(cfg HotcopyConfig) *Analyzer {
	return &Analyzer{
		Name: "hotcopy",
		Doc: "forbid moving values larger than the threshold by value in the " +
			"hot set derived from the hotalloc roots: pointer parameters, " +
			"receivers and range elements, caller-owned destinations for " +
			"results; a ratchet list names the sanctioned remainder",
		RunProgram: func(pass *ProgramPass) { runHotcopy(pass, cfg) },
	}
}

// copySizes is the layout hotcopy measures values under: the gc compiler
// on amd64, whatever platform the analysis runs on.
var copySizes = types.SizesFor("gc", "amd64")

// hotcopyMaxBytes is the largest value size, under copySizes, that may be
// moved by value in a hot function.
const hotcopyMaxBytes = 64

// hotcopyFinding is one by-value copy in a hot node, held until the
// ratchet list has been consulted.
type hotcopyFinding struct {
	pos token.Pos
	msg string
}

func runHotcopy(pass *ProgramPass, cfg HotcopyConfig) {
	reach, order := hotSet(pass, "hotcopy", cfg.Roots, cfg.Cold)
	graph := pass.Prog.Graph
	allowed := make(map[string]bool, len(cfg.Allow))
	for _, a := range cfg.Allow {
		switch {
		case graph.Node(a.Func) == nil:
			pass.Reportf(pass.Prog.Pkgs[0].Files[0].Pos(),
				"hotcopy ratchet entry %q does not resolve to a module function; delete it", a.Func)
		case strings.TrimSpace(a.Reason) == "":
			pass.Reportf(graph.Node(a.Func).Pos(),
				"hotcopy ratchet entry %q has no reason", a.Func)
		}
		allowed[a.Func] = true
	}
	hit := make(map[string]bool, len(cfg.Allow))
	for _, n := range order {
		findings := hotcopyNode(n, Chain(reach, n))
		if len(findings) == 0 {
			continue
		}
		ref := n.Ref
		if i := strings.IndexByte(ref, '$'); i >= 0 {
			ref = ref[:i] // a literal is covered by its declaration's entry
		}
		if allowed[ref] {
			hit[ref] = true
			continue
		}
		for _, f := range findings {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	for _, a := range cfg.Allow {
		if n := graph.Node(a.Func); n != nil && !hit[a.Func] {
			pass.Reportf(n.Pos(),
				"hotcopy ratchet entry %q produces no finding (no longer hot, or no longer copies); delete it from the list", a.Func)
		}
	}
}

// hotcopyNode collects one hot node's by-value copies: its signature,
// then its body. Nested literals are their own hot nodes, so the body
// walk stops at literal boundaries.
func hotcopyNode(n *CGNode, chain string) []hotcopyFinding {
	info := n.Pkg.Info
	name := n.DisplayName()
	var out []hotcopyFinding
	large := func(t types.Type) (string, int64, bool) {
		if t == nil || pointerShaped(t) {
			return "", 0, false
		}
		size := copySizes.Sizeof(t)
		return types.TypeString(t, shortQualifier), size, size > hotcopyMaxBytes
	}
	report := func(pos token.Pos, what string, t types.Type, fix string) {
		if ts, size, ok := large(t); ok {
			out = append(out, hotcopyFinding{pos, fmt.Sprintf(
				"%s of type %s (%d B) is copied in hot function %s (hot path: %s); %s",
				what, ts, size, name, chain, fix)})
		}
	}

	var ftype *ast.FuncType
	if n.Decl != nil {
		ftype = n.Decl.Type
		if recv := n.Decl.Recv; recv != nil {
			for _, f := range recv.List {
				report(f.Type.Pos(), "receiver", info.TypeOf(f.Type), "use a pointer receiver")
			}
		}
	} else {
		ftype = n.Lit.Type
	}
	if ftype.Params != nil {
		for _, f := range ftype.Params.List {
			report(f.Type.Pos(), "parameter "+fieldNames(f), info.TypeOf(f.Type), "pass a pointer")
		}
	}
	if ftype.Results != nil {
		for _, f := range ftype.Results.List {
			report(f.Type.Pos(), "result", info.TypeOf(f.Type), "write into storage the caller owns")
		}
	}

	walkShallow(n.Body(), func(node ast.Node) {
		switch s := node.(type) {
		case *ast.RangeStmt:
			if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
				report(id.Pos(), "range value "+id.Name, info.TypeOf(id), "range over the index and take the element's address")
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) || (s.Tok != token.DEFINE && s.Tok != token.ASSIGN) {
				return
			}
			for i, lhs := range s.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && isLocalVar(info, id) && isExistingValue(info, s.Rhs[i]) {
					report(id.Pos(), "local "+id.Name, info.TypeOf(s.Rhs[i]), "take a pointer to it instead")
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) != len(s.Values) {
				return
			}
			for i, id := range s.Names {
				if id.Name != "_" && isExistingValue(info, s.Values[i]) {
					report(id.Pos(), "local "+id.Name, info.TypeOf(s.Values[i]), "take a pointer to it instead")
				}
			}
		}
	})
	return out
}

// fieldNames renders a parameter field's names ("a, b"), or "_" for an
// unnamed parameter.
func fieldNames(f *ast.Field) string {
	if len(f.Names) == 0 {
		return "_"
	}
	names := make([]string, len(f.Names))
	for i, id := range f.Names {
		names[i] = id.Name
	}
	return strings.Join(names, ", ")
}

// isLocalVar reports whether id names a function-local variable (a
// parameter counts): assigning to one copies, where a store into a
// field, an element or through a pointer keeps state by design.
func isLocalVar(info *types.Info, id *ast.Ident) bool {
	if id.Name == "_" {
		return false
	}
	v, ok := objOf(info, id).(*types.Var)
	return ok && !v.IsField() && v.Parent() != nil && v.Parent() != v.Pkg().Scope()
}

// isExistingValue reports whether e reads a value that already exists —
// a variable, a field, an element or a dereference — so binding it to a
// new variable copies it. Call results and composite literals are built
// in place and are not copies.
func isExistingValue(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, ok := info.Uses[x].(*types.Var)
		return ok
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			return sel.Kind() == types.FieldVal
		}
		_, ok := info.Uses[x.Sel].(*types.Var) // package-level variable
		return ok
	case *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

package lint

import (
	"go/ast"
	"go/types"
)

// PuretickConfig scopes the puretick analyzer.
type PuretickConfig struct {
	// Roots are the FuncRefs whose transitive callees must be free of
	// nondeterminism sources: the per-tick defense pipeline entry and the
	// executor's deterministic reduce path.
	Roots []FuncRef
	// ClockPath is the sanctioned wall-clock seam named in diagnostics.
	ClockPath string
	// Sinks are the order-sensitive output package prefixes for the
	// map-iteration rule (shared with mapiter).
	Sinks []string
}

// Puretick returns the puretick analyzer: a whole-program reachability
// proof that the tick path stays deterministic. Every function, method,
// and closure transitively reachable from the configured roots — across
// package boundaries, through interface dispatch (CHA) and func values —
// must not read the wall clock (time.Now/Since), draw from the global
// math/rand source, spawn a goroutine, select (scheduling-order
// dependent), or let map iteration order reach an order-sensitive sink.
// Unlike the package-scoped determinism analyzer, there is no allowlist
// to maintain: moving code between packages cannot silently exempt it,
// because the proof follows calls, not directories.
func Puretick(cfg PuretickConfig) *Analyzer {
	return &Analyzer{
		Name: "puretick",
		Doc: "prove by call-graph reachability that the tick and reduce " +
			"paths never reach a nondeterminism source (wall clock, global " +
			"math/rand, goroutine spawn, select, order-sensitive map iteration)",
		RunProgram: func(pass *ProgramPass) { runPuretick(pass, cfg) },
	}
}

func runPuretick(pass *ProgramPass, cfg PuretickConfig) {
	graph := pass.Prog.Graph
	var roots []*CGNode
	for _, ref := range cfg.Roots {
		n := graph.Node(ref)
		if n == nil {
			// A stale root is itself a finding: the proof would silently
			// cover nothing.
			pass.Reportf(pass.Prog.Pkgs[0].Files[0].Pos(),
				"puretick root %q does not resolve to a module function; update the analyzer configuration", ref)
			continue
		}
		roots = append(roots, n)
	}
	reach, order := graph.Reachable(roots, nil)
	for _, n := range order {
		checkPureNode(pass, cfg, reach, n)
	}
}

// checkPureNode scans one reachable node's body (nested literals are
// their own reachable nodes) for nondeterminism sources.
func checkPureNode(pass *ProgramPass, cfg PuretickConfig, reach map[*CGNode]ReachEntry, n *CGNode) {
	info := n.Pkg.Info
	walkShallow(n.Body(), func(node ast.Node) {
		switch e := node.(type) {
		case *ast.GoStmt:
			pass.Reportf(e.Pos(),
				"goroutine spawn on the deterministic tick path (%s); completion order would race the trace",
				Chain(reach, n))
		case *ast.SelectStmt:
			pass.Reportf(e.Pos(),
				"select on the deterministic tick path (%s); case choice depends on scheduling",
				Chain(reach, n))
		case *ast.SelectorExpr:
			fn, ok := info.Uses[e.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return // methods (e.g. (*rand.Rand).Float64) are fine
			}
			switch pkgPath := fn.Pkg().Path(); {
			case pkgPath == "time" && (fn.Name() == "Now" || fn.Name() == "Since"):
				pass.Reportf(e.Pos(),
					"wall-clock read time.%s on the deterministic tick path (%s); route it through %s",
					fn.Name(), Chain(reach, n), cfg.ClockPath)
			case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[fn.Name()]:
				pass.Reportf(e.Pos(),
					"global math/rand source (rand.%s) on the deterministic tick path (%s); draw from an explicitly seeded *rand.Rand",
					fn.Name(), Chain(reach, n))
			}
		case *ast.RangeStmt:
			if sink, sensitive := orderSensitiveMapRange(info, e, cfg.Sinks); sensitive {
				if !sortedAfter(info, n.Body(), e.End()) {
					pass.Reportf(e.Pos(),
						"map iteration order leaks into %s on the deterministic tick path (%s); iterate a canonically ordered key slice",
						sink, Chain(reach, n))
				}
			}
		}
	})
}

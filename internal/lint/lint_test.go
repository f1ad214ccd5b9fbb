package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/sensors"
)

// Golden-file harness: each testdata/<analyzer> directory is a real Go
// package annotated with `// want "regex"` (or `/* want "regex" */`)
// comments on the lines where a diagnostic is expected. The harness loads
// the package through the real loader, runs the analyzer under test, and
// asserts an exact two-way match: every diagnostic must be wanted, and
// every want must be hit.

var (
	wantRE   = regexp.MustCompile(`(?://|/\*)\s*want\s+((?:"[^"]*"\s*)+)`)
	quotedRE = regexp.MustCompile(`"([^"]*)"`)
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants scans the package's Go files for want annotations.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var out []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(q[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), i+1, q[1], err)
				}
				out = append(out, &expectation{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	return out
}

// runGolden loads testdata/<name> and checks the analyzers' diagnostics
// against the package's want annotations.
func runGolden(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages from %s, want 1", len(pkgs), dir)
	}
	for _, terr := range pkgs[0].TypeErrors {
		t.Errorf("type error in %s: %v", dir, terr)
	}
	diags := Run(pkgs, analyzers)
	wants := parseWants(t, dir)
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == base && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestFloatCmpGolden(t *testing.T) {
	runGolden(t, "floatcmp", FloatCmp())
}

func TestStateIndexGolden(t *testing.T) {
	runGolden(t, "stateindex", StateIndex(StateIndexConfig{
		SensorsPath: sensorsPath,
		NumStates:   int(sensors.NumStates),
	}))
}

func TestExhaustiveGolden(t *testing.T) {
	runGolden(t, "exhaustive", Exhaustive(ExhaustiveConfig{
		TypePrefix: modulePath + "/",
		Exclude: map[string][]string{
			// Mirrors the suite's sentinel exclusions (telemetry.Stage
			// NumStages, sensors.StateIndex NumStates).
			modulePath + "/internal/lint/testdata/exhaustive.Stage": {"NumStages"},
		},
	}))
}

func TestErrDropGolden(t *testing.T) {
	runGolden(t, "errdrop", ErrDrop(modulePath+"/internal/"))
}

func TestHotallocGolden(t *testing.T) {
	runGolden(t, "hotalloc", Hotalloc(HotallocConfig{
		MatPath: modulePath + "/internal/mat",
		Roots:   []FuncRef{modulePath + "/internal/lint/testdata/hotalloc:filter.tick"},
		Cold:    []FuncRef{modulePath + "/internal/lint/testdata/hotalloc:filter.cold"},
	}))
}

func TestHotcopyGolden(t *testing.T) {
	pkg := modulePath + "/internal/lint/testdata/hotcopy"
	runGolden(t, "hotcopy", Hotcopy(HotcopyConfig{
		Roots: []FuncRef{pkg + ":state.tick"},
		Cold:  []FuncRef{pkg + ":state.cold"},
		Allow: []CopyAllowance{
			{pkg + ":state.sanctioned", "golden: a sanctioned copy"},
			{pkg + ":state.stale", "golden: an entry that no longer copies"},
		},
	}))
}

func TestPuretickGolden(t *testing.T) {
	runGolden(t, "puretick", Puretick(PuretickConfig{
		Roots:     []FuncRef{modulePath + "/internal/lint/testdata/puretick:tick"},
		ClockPath: clockPath,
		Sinks:     []string{"fmt"},
	}))
}

func TestMapIterGolden(t *testing.T) {
	runGolden(t, "mapiter", MapIter(MapIterConfig{Sinks: []string{"fmt"}}))
}

func TestSharedWriteGolden(t *testing.T) {
	runGolden(t, "sharedwrite", SharedWrite(SharedWriteConfig{
		Runners: []FuncRef{modulePath + "/internal/lint/testdata/sharedwrite:pool"},
	}))
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, "determinism", Determinism(DeterminismConfig{
		Restricted: []string{modulePath + "/internal/lint/testdata/determinism"},
		ClockPath:  clockPath,
	}))
}

// TestIgnoreDirectives covers the suppression machinery: a directive with
// a reason silences the finding; a bare directive silences it too but is
// itself reported, so no suppression escapes the audit trail.
func TestIgnoreDirectives(t *testing.T) {
	runGolden(t, "ignore", FloatCmp())
}

func TestDefaultAnalyzers(t *testing.T) {
	want := []string{
		"floatcmp", "stateindex", "exhaustive", "errdrop", "hotalloc",
		"hotcopy", "determinism", "puretick", "mapiter", "sharedwrite",
	}
	azs := DefaultAnalyzers()
	if len(azs) != len(want) {
		t.Fatalf("DefaultAnalyzers returned %d analyzers, want %d", len(azs), len(want))
	}
	for i, az := range azs {
		if az.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, az.Name, want[i])
		}
		if az.Doc == "" {
			t.Errorf("analyzer %q has no Doc", az.Name)
		}
		if got := AnalyzerByName(az.Name); got == nil || got.Name != az.Name {
			t.Errorf("AnalyzerByName(%q) = %v", az.Name, got)
		}
	}
	if AnalyzerByName("nope") != nil {
		t.Error("AnalyzerByName of unknown name should return nil")
	}
}

// TestRepoClean runs the full default suite over the whole module — the
// same invariant cmd/delint enforces in CI, kept here so a plain
// `go test ./...` catches regressions too.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; run without -short")
	}
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, terr)
		}
	}
	for _, d := range Run(pkgs, DefaultAnalyzers()) {
		t.Errorf("finding: %s", d)
	}
}

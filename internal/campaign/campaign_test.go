package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
)

// testSpec is the suite's study: a small real grid — two vehicle
// profiles, attacked and attack-free conditions, short missions — big
// enough to split 16 ways, small enough to run many times.
func testSpec() Spec {
	return Spec{
		Name:          "test-study",
		Seed:          11,
		Missions:      4,
		Profiles:      []string{"ArduCopter", "ArduRover"},
		Strategies:    []string{"delorean"},
		AttackSensors: []int{0, 1},
		Onset:         Range{Min: 1, Max: 1.5},
		Duration:      Range{Min: 1, Max: 1.5},
		Wind:          Range{Min: 0, Max: 2},
		MaxSec:        3,
	}
}

// renderStudy runs the campaign with the options and renders the study
// bytes.
func renderStudy(t *testing.T, opt Options) []byte {
	t.Helper()
	c, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	study, err := c.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := study.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestShardRanges(t *testing.T) {
	cases := []struct {
		n, count int
		want     []Shard
	}{
		{4, 1, []Shard{{0, 0, 4}}},
		{4, 2, []Shard{{0, 0, 2}, {1, 2, 4}}},
		{5, 2, []Shard{{0, 0, 3}, {1, 3, 5}}},
		{4, 0, []Shard{{0, 0, 4}}},
		{2, 5, []Shard{{0, 0, 1}, {1, 1, 2}}},
	}
	for _, tc := range cases {
		got := shardRanges(tc.n, tc.count)
		if len(got) != len(tc.want) {
			t.Errorf("shardRanges(%d, %d) = %v, want %v", tc.n, tc.count, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("shardRanges(%d, %d)[%d] = %v, want %v", tc.n, tc.count, i, got[i], tc.want[i])
			}
		}
	}
	// Exhaustive coverage property: every partitioning tiles [0, n).
	for n := 1; n <= 20; n++ {
		for count := 1; count <= 2*n; count++ {
			lo := 0
			for _, sh := range shardRanges(n, count) {
				if sh.Lo != lo || sh.Hi < sh.Lo {
					t.Fatalf("shardRanges(%d, %d): bad tile %v", n, count, sh)
				}
				lo = sh.Hi
			}
			if lo != n {
				t.Fatalf("shardRanges(%d, %d) covers [0, %d), want [0, %d)", n, count, lo, n)
			}
		}
	}
}

// TestStudyInvariance is the acceptance matrix: the study's bytes are
// identical across monolithic vs sharded execution, shard counts 1/4/16,
// workers 1 vs all CPUs, the runner vs the service pool engine, and
// persisted vs in-memory runs.
func TestStudyInvariance(t *testing.T) {
	want := renderStudy(t, Options{Shards: 1, Workers: 1})
	serial, wide := engine.NewPool(1, 0), engine.NewPool(runtime.NumCPU(), 0)
	t.Cleanup(serial.Close)
	t.Cleanup(wide.Close)
	variants := []struct {
		name string
		opt  Options
	}{
		{"shards=4", Options{Shards: 4, Workers: 1}},
		{"shards=16", Options{Shards: 16, Workers: 1}},
		{"workers=N", Options{Shards: 4, Workers: runtime.NumCPU()}},
		{"engine=pool", Options{Shards: 1, Engine: serial}},
		{"engine=pool/shards=4/workers=N", Options{Shards: 4, Engine: wide}},
		{"checkpointed", Options{Shards: 4, Workers: 1, Dir: t.TempDir()}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if got := renderStudy(t, v.opt); !bytes.Equal(got, want) {
				t.Errorf("study bytes differ from the monolithic single-worker runner baseline")
			}
		})
	}
}

// TestSpecBuildIsPure: two independent builds of the same spec draw an
// identical job list — the invariant resume rests on.
func TestSpecBuildIsPure(t *testing.T) {
	spec := testSpec().withDefaults()
	a, ga, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	b, gb, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != len(ga) {
		t.Fatalf("job/group counts differ: %d/%d jobs, %d groups", len(a), len(b), len(ga))
	}
	for i := range a {
		if a[i].Label != b[i].Label || a[i].Cfg.Seed != b[i].Cfg.Seed {
			t.Errorf("job %d differs across builds: %q/%d vs %q/%d",
				i, a[i].Label, a[i].Cfg.Seed, b[i].Label, b[i].Cfg.Seed)
		}
		if ga[i] != gb[i] {
			t.Errorf("group %d differs across builds: %q vs %q", i, ga[i], gb[i])
		}
	}
}

// TestGridGroupsAndJobCount: the grid enumerates profiles × strategies ×
// attack sizes × δ scales in declared order, missions per condition.
func TestGridGroupsAndJobCount(t *testing.T) {
	spec := testSpec().withDefaults()
	jobs, groups, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	wantJobs := len(spec.Profiles) * len(spec.Strategies) * len(spec.AttackSensors) * len(spec.DeltaScales) * spec.Missions
	if len(jobs) != wantJobs {
		t.Fatalf("built %d jobs, want %d", len(jobs), wantJobs)
	}
	wantOrder := []string{
		"ArduCopter/DeLorean/k=0/dx1.00",
		"ArduCopter/DeLorean/k=1/dx1.00",
		"ArduRover/DeLorean/k=0/dx1.00",
		"ArduRover/DeLorean/k=1/dx1.00",
	}
	var seen []string
	for _, g := range groups {
		if len(seen) == 0 || seen[len(seen)-1] != g {
			seen = append(seen, g)
		}
	}
	if len(seen) != len(wantOrder) {
		t.Fatalf("condition order %v, want %v", seen, wantOrder)
	}
	for i := range seen {
		if seen[i] != wantOrder[i] {
			t.Errorf("condition %d = %q, want %q", i, seen[i], wantOrder[i])
		}
	}
	// Attack-free conditions carry no schedule; attacked ones do.
	for i, j := range jobs {
		attacked := strings.Contains(groups[i], "k=1")
		if (j.Cfg.Attacks != nil) != attacked {
			t.Errorf("job %d (%s): attacks=%v", i, groups[i], j.Cfg.Attacks != nil)
		}
	}
}

// TestRandomMode: random mode draws the requested total with conditions
// from the declared axes, deterministically.
func TestRandomMode(t *testing.T) {
	spec := testSpec()
	spec.Mode = ModeRandom
	spec.Missions = 10
	norm := spec.withDefaults()
	jobs, groups, err := norm.build()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 10 {
		t.Fatalf("built %d jobs, want 10", len(jobs))
	}
	conds, err := norm.conditions()
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{}
	for _, c := range conds {
		valid[c.name()] = true
	}
	for i, g := range groups {
		if !valid[g] {
			t.Errorf("job %d drew unknown condition %q", i, g)
		}
	}
	again, _, err := norm.build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Label != again[i].Label {
			t.Errorf("random draw %d not reproducible: %q vs %q", i, jobs[i].Label, again[i].Label)
		}
	}
}

// TestSpecValidation: each malformed spec is rejected with a pointed
// error.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad mode", func(s *Spec) { s.Mode = "zigzag" }, "mode"},
		{"no missions", func(s *Spec) { s.Missions = 0 }, "missions"},
		{"no profiles", func(s *Spec) { s.Profiles = nil }, "profile"},
		{"unknown profile", func(s *Spec) { s.Profiles = []string{"HoverBoard"} }, "profile"},
		{"unknown strategy", func(s *Spec) { s.Strategies = []string{"prayer"} }, "strategy"},
		{"negative k", func(s *Spec) { s.AttackSensors = []int{-1} }, "attack_sensors"},
		{"huge k", func(s *Spec) { s.AttackSensors = []int{99} }, "attack_sensors"},
		{"zero delta scale", func(s *Spec) { s.DeltaScales = []float64{0} }, "delta_scales"},
		{"inverted wind", func(s *Spec) { s.Wind = Range{Min: 5, Max: 1} }, "wind"},
		{"negative onset", func(s *Spec) { s.Onset = Range{Min: -1, Max: 2} }, "onset"},
		{"negative max_sec", func(s *Spec) { s.MaxSec = -3 }, "max_sec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec()
			tc.mut(&spec)
			_, err := New(spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestSpecSHAIsNormalizationStable: a spec and its explicit-default
// spelling fingerprint identically, while any material change does not.
func TestSpecSHAIsNormalizationStable(t *testing.T) {
	a, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	explicit := testSpec()
	explicit.Mode = ModeGrid
	explicit.Strategies = []string{"DeLorean"}
	explicit.DeltaScales = []float64{1}
	b, err := New(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a.SpecSHA256() != b.SpecSHA256() {
		t.Error("defaulted and explicit spec spellings fingerprint differently")
	}
	changed := testSpec()
	changed.Seed++
	c, err := New(changed)
	if err != nil {
		t.Fatal(err)
	}
	if a.SpecSHA256() == c.SpecSHA256() {
		t.Error("seed change did not change the spec fingerprint")
	}
}

// TestFreshDirRefusedWhenOccupied: without Resume, a directory holding
// checkpoints is an error, not a silent merge of two studies.
func TestFreshDirRefusedWhenOccupied(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Errorf("occupied dir error = %v, want refusal mentioning resume", err)
	}
}

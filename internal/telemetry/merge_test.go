package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// mergeMission builds the i-th mission of a deterministic synthetic
// sweep covering every classification branch: detected attacks,
// undetected attacks, gratuitous recoveries, and quiet clean missions.
func mergeMission(i int) *Mission {
	r := NewRecorder()
	r.SetStages(StageNS{BaseLoop: int64(1000 + 13*i), Shadow: int64(10 * i)})
	switch i % 4 {
	case 0: // detected, diagnosed, recovered attack
		r.AlertRaised(50+i, "cusum:x")
		r.DiagnosisPass(51+i, false, "GPS")
		r.RecoveryEngaged(52+i, "DeLorean/lqr isolated={GPS}")
		r.SetDetectionLatency(10 + 7*i)
		r.FinishMission(1000+i, "completed", Outcome{
			Success: true, AttackMounted: true, DiagnosedDuringAttack: true,
		})
	case 1: // clean, quiet
		r.FinishMission(900+i, "completed", Outcome{Success: true})
	case 2: // attacked, never detected, crashed
		r.FinishMission(400+i, "crashed", Outcome{Crashed: true, AttackMounted: true})
	default: // clean with a gratuitous recovery: diagnosis FP
		r.RecoveryEngaged(10+i, "DeLorean/autopilot isolated={gyroscope}")
		r.FinishMission(800+i, "completed", Outcome{Success: true})
	}
	return r.Mission()
}

// mergeGroup assigns mission i its experiment group; the boundary sits
// mid-sweep so shard cuts land both inside and across groups.
func mergeGroup(i int) string {
	if i < 7 {
		return "alpha"
	}
	return "beta"
}

// collectRange folds missions [lo, hi) into a fresh collector exactly as
// a campaign shard does: Begin per job (repeat Begins reuse the group),
// Add in submission order.
func collectRange(t *testing.T, lo, hi int) *Report {
	t.Helper()
	c := NewCollector()
	for i := lo; i < hi; i++ {
		c.Begin(mergeGroup(i))
		c.Add(mergeMission(i))
		// Exactly-representable values keep float sums associative, so
		// the sharded RMSD path can be byte-compared too.
		c.ObserveRMSD(float64(i) * 0.25)
	}
	rep, err := c.Report(Meta{Generator: "shard"})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// roundTrip pushes a report through its JSON encoding, as campaign
// checkpoints do between a shard run and the final merge.
func roundTrip(t *testing.T, rep *Report) *Report {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	out := &Report{}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func renderJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeReportsSplitEqualsMonolithic is the campaign layer's core
// guarantee: partition a sweep at any contiguous cut points, aggregate
// each slice independently, persist the partials through JSON, merge —
// the bytes equal the monolithic report's, for every partitioning.
func TestMergeReportsSplitEqualsMonolithic(t *testing.T) {
	const n = 12
	meta := Meta{Generator: "merged", Missions: n, Seed: 42}
	mono := collectRange(t, 0, n)
	mono.Meta = meta
	want := renderJSON(t, mono)

	splits := [][]int{
		{n},                                    // one shard: merge of a single part
		{6, n},                                 // two halves
		{3, 6, 9, n},                           // four shards
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, n}, // shard per mission
		{7, n},                                 // cut exactly on the group boundary
		{2, 11, n},                             // uneven shards
	}
	for _, cuts := range splits {
		parts := make([]*Report, 0, len(cuts))
		lo := 0
		for _, hi := range cuts {
			parts = append(parts, roundTrip(t, collectRange(t, lo, hi)))
			lo = hi
		}
		merged, err := MergeReports(meta, parts...)
		if err != nil {
			t.Fatalf("cuts %v: %v", cuts, err)
		}
		if got := renderJSON(t, merged); !bytes.Equal(got, want) {
			t.Errorf("cuts %v: merged report differs from monolithic bytes", cuts)
		}
	}
}

// TestMergeReportsAssociativity: merging partials in any grouping yields
// the same bytes, as long as submission order is preserved.
func TestMergeReportsAssociativity(t *testing.T) {
	meta := Meta{Generator: "merged"}
	a := collectRange(t, 0, 4)
	b := collectRange(t, 4, 8)
	c := collectRange(t, 8, 12)

	flat, err := MergeReports(meta, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := MergeReports(Meta{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	left, err := MergeReports(meta, ab, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := MergeReports(Meta{}, b, c)
	if err != nil {
		t.Fatal(err)
	}
	right, err := MergeReports(meta, a, bc)
	if err != nil {
		t.Fatal(err)
	}
	want := renderJSON(t, flat)
	if !bytes.Equal(renderJSON(t, left), want) {
		t.Error("left-grouped merge differs from flat merge")
	}
	if !bytes.Equal(renderJSON(t, right), want) {
		t.Error("right-grouped merge differs from flat merge")
	}
}

// TestMergeReportsFirstTraceFromEarliestPart: the merged group's example
// trace is the earliest part's, matching the monolithic first-attacked
// choice.
func TestMergeReportsFirstTraceFromEarliestPart(t *testing.T) {
	// Missions 0 and 4 are both attacked (i%4 == 0); with a cut at 2 the
	// trace must come from mission 0 in the first part.
	a := collectRange(t, 0, 2)
	b := collectRange(t, 2, 6)
	merged, err := MergeReports(Meta{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Experiments) == 0 {
		t.Fatal("no experiment groups after merge")
	}
	g := merged.Experiments[0]
	if len(g.FirstAttackedTrace) == 0 {
		t.Fatal("merged group lost its first-attacked trace")
	}
	wantFirst := a.Experiments[0].FirstAttackedTrace[0]
	if g.FirstAttackedTrace[0] != wantFirst {
		t.Errorf("merged trace starts at %+v, want the first part's %+v", g.FirstAttackedTrace[0], wantFirst)
	}
}

// TestMergeReportsRejectsBadParts: nil parts and version-mismatched
// parts fail loudly rather than producing a silently wrong study report.
func TestMergeReportsRejectsBadParts(t *testing.T) {
	good := collectRange(t, 0, 2)
	if _, err := MergeReports(Meta{}, good, nil); err == nil {
		t.Error("nil part did not error")
	}
	stale := collectRange(t, 0, 2)
	stale.Version = ReportVersion + 1
	if _, err := MergeReports(Meta{}, good, stale); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch error = %v", err)
	}
}

// TestMergeReportsEmpty: merging nothing yields a valid empty report.
func TestMergeReportsEmpty(t *testing.T) {
	rep, err := MergeReports(Meta{Generator: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != ReportVersion || len(rep.Experiments) != 0 || rep.Totals.Jobs != 0 {
		t.Errorf("empty merge = %+v", rep)
	}
}

package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// opts builds an options value as flag.Parse would have: each mutation
// marks its flag seen.
func opts(muts ...func(*options)) options {
	o := options{
		exp: "all", missions: 25, seed: 1, windCap: 3, shards: 1,
		flagsSeen: make(map[string]bool),
	}
	for _, m := range muts {
		m(&o)
	}
	return o
}

func seen(name string) func(*options) {
	return func(o *options) { o.flagsSeen[name] = true }
}

// TestValidateExitCodes drives every inter-flag rule and value check
// through validate and pins the process exit code each combination
// produces — 0 for accepted, 2 for usage errors.
func TestValidateExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		o        options
		wantExit int
		wantMsg  string
	}{
		{"defaults", opts(), 0, ""},
		{"campaign alone", opts(func(o *options) { o.campaign = "spec.json" }, seen("campaign")), 0, ""},
		{"campaign with checkpoint and resume", opts(func(o *options) {
			o.campaign = "spec.json"
			o.checkpoint = "ckpt"
			o.resume = true
		}, seen("campaign"), seen("checkpoint"), seen("resume")), 0, ""},
		{"shards without campaign", opts(func(o *options) { o.shards = 4 }, seen("shards")), 2, "-shards requires -campaign"},
		{"checkpoint without campaign", opts(func(o *options) { o.checkpoint = "ckpt" }, seen("checkpoint")), 2, "-checkpoint requires -campaign"},
		{"resume without checkpoint", opts(func(o *options) {
			o.campaign = "spec.json"
			o.resume = true
		}, seen("campaign"), seen("resume")), 2, "-resume requires -checkpoint"},
		{"halt-after without checkpoint", opts(func(o *options) {
			o.campaign = "spec.json"
			o.haltAfter = 2
		}, seen("campaign"), seen("halt-after")), 2, "-halt-after requires -checkpoint"},
		{"campaign with exp", opts(func(o *options) { o.campaign = "spec.json"; o.exp = "table2" }, seen("campaign"), seen("exp")), 2, "-campaign conflicts with -exp"},
		{"campaign with missions", opts(func(o *options) { o.campaign = "spec.json"; o.missions = 100 }, seen("campaign"), seen("missions")), 2, "-campaign conflicts with -missions"},
		{"campaign with seed", opts(func(o *options) { o.campaign = "spec.json"; o.seed = 7 }, seen("campaign"), seen("seed")), 2, "-campaign conflicts with -seed"},
		{"campaign with report", opts(func(o *options) { o.campaign = "spec.json"; o.report = "r.json" }, seen("campaign"), seen("report")), 2, "-campaign conflicts with -report"},
		{"zero shards", opts(func(o *options) { o.campaign = "spec.json"; o.shards = 0 }, seen("campaign"), seen("shards")), 2, "at least 1"},
		{"zero halt-after", opts(func(o *options) {
			o.campaign = "spec.json"
			o.checkpoint = "ckpt"
			o.haltAfter = 0
		}, seen("campaign"), seen("checkpoint"), seen("halt-after")), 2, "at least 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.o.validate()
			if tc.wantExit == 0 {
				if err != nil {
					t.Fatalf("validate() = %v, want accepted", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() accepted, want exit %d", tc.wantExit)
			}
			if got := exitCode(err); got != tc.wantExit {
				t.Errorf("exitCode(%v) = %d, want %d", err, got, tc.wantExit)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q missing %q", err, tc.wantMsg)
			}
		})
	}
}

// TestExitCodeHalted: a campaign stopped by -halt-after exits 3 so
// scripts can distinguish "checkpointed and paused" from failure.
func TestExitCodeHalted(t *testing.T) {
	if got := exitCode(campaign.ErrHalted); got != 3 {
		t.Errorf("exitCode(ErrHalted) = %d, want 3", got)
	}
	if got := exitCode(errors.New("boom")); got != 1 {
		t.Errorf("exitCode(runtime error) = %d, want 1", got)
	}
}

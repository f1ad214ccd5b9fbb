package main

import (
	_ "embed"
	"encoding/json"
)

// goldensJSON holds output digests at the default seed, by workload: the
// report SHA-256 of each study workload's first study, which untraced and
// traced runs both draw, and the SHA-256 of service-live's phase-A
// response streams. A golden applies only to the seed and size it was
// taken at.
//
//go:embed testdata/goldens.json
var goldensJSON []byte

type golden struct {
	Seed int64 `json:"seed"`
	// Size is a study's mission count or phase A's request count.
	Size   int    `json:"size"`
	SHA256 string `json:"sha256"`
}

// goldenDigest returns the golden digest of a workload's output at this
// seed and size, if one is committed.
func goldenDigest(workload string, seed int64, size int) (string, bool) {
	var all map[string][]golden
	if err := json.Unmarshal(goldensJSON, &all); err != nil {
		panic("bench: testdata/goldens.json: " + err.Error())
	}
	for _, g := range all[workload] {
		if g.Seed == seed && g.Size == size {
			return g.SHA256, true
		}
	}
	return "", false
}

package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// newTestServer boots a service over httptest and tears it down with the
// test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func post(t *testing.T, url, body string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestServiceDeterminismAcrossPoolSizes is the service-boundary
// determinism property: the same request body must yield byte-identical
// NDJSON at pool sizes 1 and 8, live-simulated.
func TestServiceDeterminismAcrossPoolSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight full missions")
	}
	const body = `{"attack":"GPS","attack_start":5,"attack_dur":5,"seed":11,"max_sec":30,"missions":4,"name":"det"}`
	var bodies [][]byte
	for _, shards := range []int{1, 8} {
		_, ts := newTestServer(t, Config{Shards: shards})
		resp, b := post(t, ts.URL+"/v1/experiments", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: status %d: %s", shards, resp.StatusCode, b)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("shards=%d: Content-Type = %q", shards, ct)
		}
		bodies = append(bodies, b)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("response bytes differ between pool sizes 1 and 8:\npool1: %d bytes\npool8: %d bytes", len(bodies[0]), len(bodies[1]))
	}
	// The stream shape: accepted, one mission per index in order, report.
	lines := bytes.Split(bytes.TrimSuffix(bodies[0], []byte("\n")), []byte("\n"))
	if len(lines) != 6 {
		t.Fatalf("stream has %d lines, want 6 (accepted + 4 missions + report)", len(lines))
	}
	var first struct {
		Type     string `json:"type"`
		Missions int    `json:"missions"`
	}
	if err := json.Unmarshal(lines[0], &first); err != nil || first.Type != "accepted" || first.Missions != 4 {
		t.Errorf("first line = %s (err %v)", lines[0], err)
	}
	for i, ln := range lines[1:5] {
		var mr struct {
			Type  string `json:"type"`
			Index int    `json:"index"`
		}
		if err := json.Unmarshal(ln, &mr); err != nil || mr.Type != "mission" || mr.Index != i {
			t.Errorf("line %d = %s (err %v), want mission index %d", i+1, ln, err, i)
		}
	}
	var rep struct {
		Version int `json:"version"`
		Meta    struct {
			Generator string `json:"generator"`
			Missions  int    `json:"missions"`
		} `json:"meta"`
	}
	if err := json.Unmarshal(lines[5], &rep); err != nil || rep.Version != 1 || rep.Meta.Generator != "delorean-server" || rep.Meta.Missions != 4 {
		t.Errorf("final line is not the run report: %.120s (err %v)", lines[5], err)
	}
}

// TestServiceReplayMatchesGolden is the cross-boundary identity check the
// CI service-smoke job replicates over a real socket: replaying the
// committed corpus trace through the HTTP API must stream a final report
// whose bytes are exactly the committed golden (modulo NDJSON
// compaction), at any pool size.
func TestServiceReplayMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the corpus mission twice")
	}
	raw, err := os.ReadFile("../sim/testdata/attack_mission.trace")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../sim/testdata/attack_mission.report.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, golden); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')

	body, err := json.Marshal(map[string]string{"trace_b64": base64.StdEncoding.EncodeToString(raw)})
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, shards := range []int{1, 8} {
		_, ts := newTestServer(t, Config{Shards: shards})
		resp, b := post(t, ts.URL+"/v1/missions", string(body), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: status %d: %s", shards, resp.StatusCode, b)
		}
		bodies = append(bodies, b)
		idx := bytes.LastIndexByte(bytes.TrimSuffix(b, []byte("\n")), '\n')
		last := b[idx+1:]
		if !bytes.Equal(last, want.Bytes()) {
			t.Errorf("shards=%d: streamed report differs from golden:\ngot  %.160s\nwant %.160s", shards, last, want.Bytes())
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("replay response bytes differ between pool sizes 1 and 8")
	}
}

// TestServiceDrainLetsInflightFinish: once a mission stream has started,
// BeginDrain flips /healthz to 503 and rejects new submissions, but the
// accepted batch keeps running and its stream still ends with the full
// run report.
func TestServiceDrainLetsInflightFinish(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full missions")
	}
	srv, ts := newTestServer(t, Config{Shards: 1})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/experiments",
		strings.NewReader(`{"seed":5,"max_sec":30,"missions":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	rd := bufio.NewReader(resp.Body)
	accepted, err := rd.ReadString('\n')
	if err != nil || !strings.Contains(accepted, `"accepted"`) {
		t.Fatalf("first stream line = %q (err %v)", accepted, err)
	}

	// The batch is in flight; start draining.
	srv.BeginDrain()
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", hresp.StatusCode)
	}
	rresp, rbody := post(t, ts.URL+"/v1/missions", `{"seed":1}`, nil)
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: status = %d (%s), want 503", rresp.StatusCode, rbody)
	}

	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rest), `"version":1`) {
		t.Errorf("in-flight stream did not finish with the run report during drain:\n%.300s", rest)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st := srv.Stats()
	if st.Runs.RejectedDraining != 1 || st.Runs.Completed != 1 {
		t.Errorf("run counters after drain = %+v", st.Runs)
	}
}

// TestServiceQueueFull429: a submission that cannot fit the bounded
// queue whole is shed with 429 and a Retry-After hint — deterministically
// provoked with a depth-1 queue and a 2-mission batch.
func TestServiceQueueFull429(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 1})
	resp, body := post(t, ts.URL+"/v1/experiments", `{"seed":1,"max_sec":5,"missions":2}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("body = %s", body)
	}
}

// TestServiceQuota429: a tenant over its token bucket is shed with 429 +
// Retry-After while other tenants are unaffected.
func TestServiceQuota429(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full missions")
	}
	_, ts := newTestServer(t, Config{Shards: 1, QuotaRate: 0.001, QuotaBurst: 1})
	hdr := map[string]string{"X-Tenant": "acme"}
	resp, body := post(t, ts.URL+"/v1/missions", `{"seed":2,"max_sec":20}`, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first submission: status %d (%s)", resp.StatusCode, body)
	}
	resp, body = post(t, ts.URL+"/v1/missions", `{"seed":2,"max_sec":20}`, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission: status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota 429 is missing Retry-After")
	}
	// A different tenant has its own bucket.
	resp, body = post(t, ts.URL+"/v1/missions", `{"seed":2,"max_sec":20}`, map[string]string{"X-Tenant": "other"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: status %d (%s)", resp.StatusCode, body)
	}
}

// TestServiceClientDisconnectCancels: closing the request mid-stream
// cancels the batch's context — queued missions are skipped, the pool
// returns to idle, and the batch is accounted as failed.
func TestServiceClientDisconnectCancels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full missions")
	}
	srv, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 64})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/experiments",
		strings.NewReader(`{"seed":9,"max_sec":300,"missions":64}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(resp.Body)
	if _, err := rd.ReadString('\n'); err != nil {
		t.Fatalf("reading accepted line: %v", err)
	}
	cancel()
	_ = resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := srv.Stats()
		if st.Pool.Queued+st.Pool.Active == 0 {
			if st.Pool.Failed == 0 {
				t.Errorf("disconnect cancelled nothing: pool stats %+v", st.Pool)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not return to idle after disconnect: %+v", st.Pool)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceRejectsMalformedRequests covers the 400 surface: bad JSON,
// unknown fields, spec conflicts, and out-of-range sweeps.
func TestServiceRejectsMalformedRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxMissions: 4})
	for _, tt := range []struct {
		name, path, body string
	}{
		{"bad json", "/v1/missions", `{"seed":`},
		{"unknown field", "/v1/missions", `{"sead":1}`},
		{"bad defense", "/v1/missions", `{"defense":"wat","seed":1}`},
		{"trace plus inline spec", "/v1/missions", `{"trace_b64":"aGk=","attack":"GPS"}`},
		{"bad trace bytes", "/v1/missions", `{"trace_b64":"aGk="}`},
		{"zero missions", "/v1/experiments", `{"seed":1}`},
		{"oversized sweep", "/v1/experiments", `{"seed":1,"missions":5}`},
	} {
		resp, body := post(t, ts.URL+tt.path, tt.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", tt.name, resp.StatusCode, body)
		}
	}
	if got := srv.Stats().Runs.Invalid; got != 7 {
		t.Errorf("Invalid counter = %d, want 7", got)
	}
}

// TestServiceCapsMissionLength: a mission asking for more than
// MaxServedSec simulated seconds is a 400 naming MaxSec on both
// endpoints, whether the length comes from the body or from a replayed
// trace's header; exactly the cap is accepted.
func TestServiceCapsMissionLength(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxMissions: 4})
	tr := &trace.Trace{Header: trace.Header{
		DT:   0.01,
		Meta: MissionSpec{Seed: 1, MaxSec: MaxServedSec + 1}.HeaderMeta(),
	}}
	var raw bytes.Buffer
	if err := tr.Encode(&raw); err != nil {
		t.Fatal(err)
	}
	replay := `{"trace_b64":"` + base64.StdEncoding.EncodeToString(raw.Bytes()) + `"}`
	for _, tt := range []struct {
		name, path, body string
	}{
		{"mission body", "/v1/missions", `{"seed":1,"max_sec":3600.5}`},
		{"mission 1e300", "/v1/missions", `{"seed":1,"max_sec":1e300}`},
		{"trace header", "/v1/missions", replay},
		{"experiment body", "/v1/experiments", `{"seed":1,"missions":2,"max_sec":7200}`},
	} {
		resp, body := post(t, ts.URL+tt.path, tt.body, nil)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "MaxSec") {
			t.Errorf("%s: status = %d (%s), want 400 naming MaxSec", tt.name, resp.StatusCode, body)
		}
	}
	spec := MissionSpec{Seed: 1, MaxSec: MaxServedSec}
	if err := spec.checkServed(); err != nil {
		t.Errorf("max_sec at the cap: %v", err)
	}
	resp, body := post(t, ts.URL+"/v1/missions", `{"seed":1,"rv":"ArduRover","max_sec":3600,"path":"S"}`, nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"type":"mission"`) {
		t.Errorf("max_sec 3600: status = %d (%s), want 200 and a mission record", resp.StatusCode, body)
	}
}

// TestServiceStatusz: the introspection endpoint serves well-formed JSON
// naming the service and its pool shape.
func TestServiceStatusz(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 3, QueueDepth: 7, QuotaRate: 2})
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Service != "delorean-server" || st.Pool.Shards != 3 || st.Pool.QueueDepth != 7 || !st.Quota.Enabled {
		t.Errorf("statusz = %+v", st)
	}
}

// TestServiceHealthz: ok when serving.
func TestServiceHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(b) != "ok\n" {
		t.Errorf("healthz = %d %q", resp.StatusCode, b)
	}
}

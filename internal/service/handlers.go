package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// MissionRequest is the POST /v1/missions body: either an inline
// MissionSpec (a live simulator-driven mission) or a recorded trace to
// replay, never both — a trace already carries its full mission
// parameterization in its header.
type MissionRequest struct {
	MissionSpec
	// TraceB64 is a base64 (standard encoding) DLRNTRC trace; when set,
	// the mission replays the recorded sensor stream and every spec field
	// must be left unset.
	TraceB64 string `json:"trace_b64,omitempty"`
}

// ExperimentRequest is the POST /v1/experiments body: Missions seeded
// variants of one spec. Per-mission seeds are pre-drawn from a master
// rng seeded with Seed — the experiments package's idiom — so the sweep
// is deterministic at any pool size.
type ExperimentRequest struct {
	MissionSpec
	// Name labels the report's experiment group (default "experiment").
	Name string `json:"name,omitempty"`
	// Missions is the sweep size, 1..Config.MaxMissions.
	Missions int `json:"missions"`
}

// batch is one accepted submission ready to stream: the pre-drawn jobs
// plus the report identity.
type batch struct {
	name string
	meta telemetry.Meta
	jobs []engine.Job
}

func (s *Server) handleMissions(w http.ResponseWriter, r *http.Request) {
	var req MissionRequest
	if !s.decode(w, r, &req) {
		return
	}
	var m *Mission
	if req.TraceB64 != "" {
		if req.MissionSpec != (MissionSpec{}) {
			s.invalid(w, errors.New("trace_b64 conflicts with inline mission parameters: a trace carries its own in its header"))
			return
		}
		raw, err := base64.StdEncoding.DecodeString(req.TraceB64)
		if err != nil {
			s.invalid(w, fmt.Errorf("trace_b64: %w", err))
			return
		}
		tr, err := trace.Decode(bytes.NewReader(raw))
		if err != nil {
			s.invalid(w, fmt.Errorf("trace_b64: %w", err))
			return
		}
		spec, err := SpecFromHeader(tr.Header)
		if err == nil {
			err = spec.checkServed()
		}
		if err != nil {
			s.invalid(w, err)
			return
		}
		if m, err = spec.Build(); err != nil {
			s.invalid(w, err)
			return
		}
		m.UseReplay(tr)
		// Re-validate with the source attached: replay-sourced missions
		// must not carry simulator-side injection settings.
		if err := m.Cfg.Validate(); err != nil {
			s.invalid(w, err)
			return
		}
	} else {
		err := req.MissionSpec.checkServed()
		if err == nil {
			m, err = req.MissionSpec.Build()
		}
		if err != nil {
			s.invalid(w, err)
			return
		}
	}
	s.runBatch(w, r, batch{
		name: "delorean",
		meta: m.Spec.ReportMeta(1),
		jobs: []engine.Job{{
			Label: fmt.Sprintf("mission (seed %d)", m.Spec.Seed),
			Cfg:   m.Cfg,
		}},
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Missions <= 0 || req.Missions > s.cfg.MaxMissions {
		s.invalid(w, fmt.Errorf("missions must be in 1..%d, got %d", s.cfg.MaxMissions, req.Missions))
		return
	}
	if err := req.MissionSpec.checkServed(); err != nil {
		s.invalid(w, err)
		return
	}
	name := req.Name
	if name == "" {
		name = "experiment"
	}
	// Pre-draw every mission's seed before any fan-out, exactly like the
	// experiments registry: randomness is fixed at submission, so the
	// sweep's bytes are a function of the request alone.
	master := rand.New(rand.NewSource(req.Seed))
	b := batch{
		name: name,
		meta: telemetry.Meta{Generator: "delorean-server", Missions: req.Missions, Seed: req.Seed, Wind: req.Wind},
		jobs: make([]engine.Job, req.Missions),
	}
	for i := 0; i < req.Missions; i++ {
		spec := req.MissionSpec
		spec.Seed = master.Int63()
		m, err := spec.Build()
		if err != nil {
			s.invalid(w, fmt.Errorf("mission %d: %w", i, err))
			return
		}
		b.jobs[i] = engine.Job{
			Label: fmt.Sprintf("%s/%04d (seed %d)", name, i, spec.Seed),
			Cfg:   m.Cfg,
		}
	}
	s.runBatch(w, r, b)
}

// runBatch applies admission control (drain, quota, queue backpressure),
// runs the batch through the pool engine, and streams NDJSON: one
// "accepted" record, one "mission" record per mission in submission
// order, and — when every mission succeeded — the versioned run report
// as the final line. The stream's bytes are a pure function of the
// request body: the pool releases results in submission order
// regardless of shard count, and no record carries a timestamp, worker
// id, or completion order.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request, b batch) {
	n := len(b.jobs)
	if s.draining.Load() {
		s.count(func(c *RunCounters) { c.RejectedDraining++ })
		s.reject(w, http.StatusServiceUnavailable, 0, "draining: submissions are rejected while the server drains")
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if ok, wait := s.quota.allow(tenant, float64(n)); !ok {
		s.count(func(c *RunCounters) { c.RejectedQuota++ })
		s.reject(w, http.StatusTooManyRequests, retrySeconds(wait),
			fmt.Sprintf("tenant %q over quota", tenant))
		return
	}
	ticket, err := s.pool.Submit(r.Context(), b.jobs)
	if err != nil {
		switch {
		case errors.Is(err, engine.ErrDraining):
			s.count(func(c *RunCounters) { c.RejectedDraining++ })
			s.reject(w, http.StatusServiceUnavailable, 0, err.Error())
		case errors.Is(err, engine.ErrQueueFull):
			s.count(func(c *RunCounters) { c.RejectedQueue++ })
			st := s.pool.Stats()
			// Coarse hint: one queue's worth of missions per shard round.
			retry := 1 + st.Queued/maxInt(1, st.Shards)
			s.reject(w, http.StatusTooManyRequests, retry, err.Error())
		default:
			s.count(func(c *RunCounters) { c.Invalid++ })
			s.reject(w, http.StatusBadRequest, 0, err.Error())
		}
		return
	}
	s.count(func(c *RunCounters) { c.Accepted++ })

	out := newStream(w)
	out.record(acceptedRecord{Type: "accepted", Name: b.name, Missions: n})
	failed := 0
	for idx := range ticket.Ready() {
		if err := ticket.Err(idx); err != nil {
			failed++
			out.record(errorRecord{Type: "error", Index: idx, Label: b.jobs[idx].Label, Error: err.Error()})
			continue
		}
		res := ticket.Result(idx)
		out.record(missionRecord{
			Type:                "mission",
			Index:               idx,
			Label:               b.jobs[idx].Label,
			Success:             res.Success,
			Crashed:             res.Crashed,
			Stalled:             res.Stalled,
			DurationSec:         res.Duration,
			FinalDistanceM:      res.FinalDistance,
			Ticks:               res.Ticks,
			RecoveryActivations: res.RecoveryActivations,
		})
	}
	if failed > 0 {
		out.record(failedRecord{Type: "failed", Failed: failed, Missions: n})
		s.count(func(c *RunCounters) { c.Failed++ })
		return
	}
	// The deterministic reduce: telemetry folds in submission order,
	// never completion order, so the report is byte-identical at any
	// shard count.
	tels := make([]*telemetry.Mission, n)
	for i := 0; i < n; i++ {
		tels[i] = ticket.Result(i).Telemetry
	}
	rep, err := BatchReport(b.name, b.meta, tels)
	if err != nil {
		out.record(errorRecord{Type: "error", Index: -1, Error: err.Error()})
		s.count(func(c *RunCounters) { c.Failed++ })
		return
	}
	out.reportLine(rep)
	s.count(func(c *RunCounters) { c.Completed++ })
}

// decode parses a JSON request body strictly (unknown fields are
// rejected — they are almost always a misspelled knob).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.invalid(w, fmt.Errorf("request body: %w", err))
		return false
	}
	return true
}

// invalid rejects a request the client can fix (HTTP 400).
func (s *Server) invalid(w http.ResponseWriter, err error) {
	s.count(func(c *RunCounters) { c.Invalid++ })
	s.reject(w, http.StatusBadRequest, 0, err.Error())
}

// reject writes a JSON error response; retryAfter > 0 adds the
// Retry-After hint (whole seconds) for 429/503 shedding.
func (s *Server) reject(w http.ResponseWriter, status, retryAfter int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(status)
	b, err := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: msg})
	if err != nil {
		return
	}
	_, _ = w.Write(append(b, '\n'))
}

// retrySeconds rounds a wait up to whole seconds, minimum 1.
func retrySeconds(wait time.Duration) int {
	sec := int(math.Ceil(wait.Seconds()))
	if sec < 1 {
		sec = 1
	}
	return sec
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

package service

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// Config sizes one mission server.
type Config struct {
	// Shards is the mission pool's executor count; <= 0 means
	// runtime.GOMAXPROCS(0).
	Shards int
	// QueueDepth bounds queued (not yet executing) missions across all
	// requests; <= 0 means 64. Submissions that do not fit are rejected
	// whole with 429.
	QueueDepth int
	// QuotaRate/QuotaBurst configure the per-tenant token bucket in
	// missions per second and missions of burst. Rate <= 0 disables
	// quotas.
	QuotaRate  float64
	QuotaBurst float64
	// MaxMissions caps one experiment request; <= 0 means 256.
	MaxMissions int
	// MaxBodyBytes caps a request body; <= 0 means 8 MiB (a replay
	// submission carries its base64 trace inline).
	MaxBodyBytes int64
}

// RunCounters are the lifetime request counters of /statusz.
type RunCounters struct {
	// Accepted counts submissions that reached the pool.
	Accepted int64 `json:"accepted"`
	// Completed/Failed count accepted submissions by final outcome (a
	// submission with any failed mission counts as failed).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Rejection counters by cause.
	RejectedQueue    int64 `json:"rejected_queue"`
	RejectedQuota    int64 `json:"rejected_quota"`
	RejectedDraining int64 `json:"rejected_draining"`
	// Invalid counts malformed or unbuildable requests (HTTP 400).
	Invalid int64 `json:"invalid"`
}

// Status is the /statusz body.
type Status struct {
	Service  string           `json:"service"`
	Draining bool             `json:"draining"`
	Pool     engine.PoolStats `json:"pool"`
	Quota    QuotaStatus      `json:"quota"`
	Runs     RunCounters      `json:"runs"`
}

// Server is the mission service: an HTTP JSON API over one long-lived,
// sharded engine.Pool. Create with New, expose via Handler, stop with
// BeginDrain/Drain (SIGTERM path) and Close.
type Server struct {
	cfg      Config
	pool     *engine.Pool
	quota    *quota
	draining atomic.Bool
	mux      *http.ServeMux

	mu   sync.Mutex
	runs RunCounters
}

// New builds a server and starts its mission pool.
func New(cfg Config) *Server {
	if cfg.MaxMissions <= 0 {
		cfg.MaxMissions = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	s := &Server{
		cfg:   cfg,
		pool:  engine.NewPool(cfg.Shards, cfg.QueueDepth),
		quota: newQuota(cfg.QuotaRate, cfg.QuotaBurst),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/missions", s.handleMissions)
	s.mux.HandleFunc("POST /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into draining mode: /healthz turns 503 (so
// load balancers stop routing here) and new submissions are rejected
// with 503, while missions already accepted keep running and their
// response streams complete normally.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	// The pool's own draining flag closes the race where a submission
	// passed the server check just before the flip: Submit re-checks.
	s.pool.BeginDrain()
}

// Drain is the SIGTERM path: BeginDrain, then block until every accepted
// mission has finished or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.pool.Drain(ctx)
}

// Draining reports whether BeginDrain/Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the pool's shards after the queue empties. Call after
// Drain (or directly in tests).
func (s *Server) Close() { s.pool.Close() }

// Stats snapshots the server for /statusz and tests.
func (s *Server) Stats() Status {
	s.mu.Lock()
	runs := s.runs
	s.mu.Unlock()
	return Status{
		Service:  "delorean-server",
		Draining: s.draining.Load(),
		Pool:     s.pool.Stats(),
		Quota:    s.quota.status(),
		Runs:     runs,
	}
}

// count applies one counter update under the lock.
func (s *Server) count(f func(*RunCounters)) {
	s.mu.Lock()
	f(&s.runs)
	s.mu.Unlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(s.Stats())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	_, _ = w.Write(append(b, '\n'))
}

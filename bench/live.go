package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/vehicle"
)

// liveLoad is the service-live workload: independent clients submitting
// one-second live missions to delorean-server as an open loop.
type liveLoad struct {
	name string
	// rate is phase A's Poisson arrival rate per second.
	rate  float64
	conns int
	// limit is the latency limit a ladder step must meet at its tail.
	limit time.Duration
	// ladder are the rates the traced run steps through, lowest first.
	ladder []float64
}

// serviceLive makes per-request work — decode, NewMission, the pool,
// NDJSON — a large share of each request, so the service layer shows.
// Phase A runs at about an eighth of the service's capacity, so that a
// request rarely queues behind another: on a shared machine, queueing
// turns every short stall of the host into a long burst of late
// requests, and the latency stops repeating from run to run.
func serviceLive() liveLoad {
	ladder := make([]float64, 7)
	for k := range ladder {
		ladder[k] = 400 * math.Pow(1.26, float64(k))
	}
	return liveLoad{name: "service-live", rate: 100, conns: 2, limit: 20 * time.Millisecond, ladder: ladder}
}

var (
	livePaths   = []string{"S", "MW", "C", "P1", "P2", "P3"}
	liveSensors = []string{"gps", "gyro", "accel", "mag", "baro"}
	// liveWarm is the warm-up request of every server setup.
	liveWarm = []byte(`{"seed":1,"max_sec":1}`)
)

// drawLive draws n requests: their Poisson due times and their bodies,
// one-second missions of a random vehicle and path, half of them under a
// one- or two-sensor attack.
func drawLive(rng *rand.Rand, rate float64, n int) ([]time.Duration, [][]byte, error) {
	due := poissonSchedule(rng, rate, n)
	profiles := vehicle.Profiles()
	bodies := make([][]byte, n)
	for i := range bodies {
		spec := service.MissionSpec{
			RV:     string(profiles[rng.Intn(len(profiles))].Name),
			Path:   livePaths[rng.Intn(len(livePaths))],
			Seed:   rng.Int63(),
			MaxSec: 1,
		}
		if rng.Intn(2) == 0 {
			targets := make([]string, 1+rng.Intn(2))
			for j, p := range rng.Perm(len(liveSensors))[:len(targets)] {
				targets[j] = liveSensors[p]
			}
			spec.Attack = strings.Join(targets, ",")
			spec.AttackStart = 0.2 + 0.3*rng.Float64()
			spec.AttackDur = 0.3 + 0.4*rng.Float64()
		}
		b, err := json.Marshal(spec)
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	return due, bodies, nil
}

// openPhase is one open-loop phase's requests.
type openPhase struct {
	start time.Time
	slots []reqSlot
	resps []response
}

// runOpen sends the bodies on their schedule. Responses keep their
// report line only when keepLast is set.
func runOpen(url string, conns []*http.Client, due []time.Duration, bodies [][]byte, keepLast bool) openPhase {
	p := openPhase{resps: make([]response, len(due)), start: time.Now()}
	p.slots = openLoop(due, len(conns), func(conn, i int) bool {
		r := post(conns[conn], url, bodies[i])
		if keepLast {
			r.last = append([]byte(nil), r.last...)
		} else {
			r.last = nil
		}
		p.resps[i] = r
		return r.err == nil
	})
	return p
}

// failures counts the failed requests and notes the first failure.
func (p openPhase) failures(res *result, what string) int {
	n := 0
	for i, r := range p.resps {
		if r.err != nil {
			if n == 0 {
				res.note("%s request %d failed: %v", what, i, r.err)
			}
			n++
		}
	}
	return n
}

// digest is the SHA-256 over every response stream's SHA-256, in request
// order.
func (p openPhase) digest() string {
	h := sha256.New()
	for _, r := range p.resps {
		h.Write(r.sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (l liveLoad) run(rc *runConfig) (*result, error) {
	if rc.tr != nil {
		return l.runTraced(rc)
	}
	res := newResult()
	half := time.Duration(rc.seconds / 2 * float64(time.Second))
	n := max(1, int(math.Round(l.rate*half.Seconds())))
	due, bodies, err := drawLive(rand.New(rand.NewSource(rc.seed)), l.rate, n)
	if err != nil {
		return nil, err
	}
	srv, _, setup, err := startServers(liveWarm, rc.seconds)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer srv.close()
	res.set("setup_s", median(setup))
	conns := newConns(l.conns)
	defer closeConns(conns)

	u0, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	// Phase A: the open loop at a fixed rate gives the latency.
	a := runOpen(srv.url, conns, due, bodies, false)
	failedA := a.failures(res, "phase A")
	// Phase B: a closed loop over the same bodies gives the capacity, and
	// every response must repeat phase A's bytes for the same body.
	var mismatched atomic.Int64
	b, wallB := closedLoop(l.conns, half, func(conn, k int) response {
		r := post(conns[conn], srv.url, bodies[k%n])
		if ref := a.resps[k%n]; r.err == nil && ref.err == nil && r.sum != ref.sum {
			mismatched.Add(1)
		}
		return r
	})
	u1, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	_, failedB := closedLatenciesMS(b)
	okB := len(b) - failedB

	digest := a.digest()
	if want, ok := goldenDigest(l.name, rc.seed, n); ok {
		res.check(digest == want, "%s phase A seed %d: %d response streams, sha256 %s, golden %s", l.name, rc.seed, n, digest, want)
	} else {
		res.note("%s phase A seed %d: %d response streams, sha256 %s (no golden for this seed and size)", l.name, rc.seed, n, digest)
	}
	res.check(mismatched.Load() == 0, "%s phase B: %d of %d responses differ from phase A's stream for the same body", l.name, mismatched.Load(), okB)

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.attempted = n + len(b)
	res.failed = failedA + failedB
	lat := summarize(latenciesMS(a.slots))
	late := make([]float64, n)
	for i, s := range a.slots {
		late[i] = msOf(s.late())
	}
	res.set("missions_per_s", float64(okB)/wallB.Seconds())
	res.set("cpu_ms_per_mission", msOf(u1.since(u0).cpu)/float64(res.attempted-res.failed))
	res.set("rss_peak_mb", rss)
	res.set("latency_p50_ms", lat.p50)
	res.note("%d set-ups; phase A: %d requests at %g/s on %d connections, latency from due time: p50 %.3f ms, p%g %.3f ms; sent late by p50 %.3f ms, p99 %.3f ms; phase B: closed loop, %d requests",
		len(setup), n, l.rate, l.conns, lat.p50, lat.tailPct, lat.tail, median(late), percentile(late, 99), len(b))
	return res, nil
}

// runTraced runs phase A twice, untraced then traced, on a quarter of
// the run each; replays a sample of the traced requests' missions in
// process on the stepped engine; and climbs the rate ladder.
func (l liveLoad) runTraced(rc *runConfig) (*result, error) {
	res := newResult()
	tr := rc.tr
	quarter := rc.seconds / 4
	n := max(1, int(math.Round(l.rate*quarter)))
	rng := rand.New(rand.NewSource(rc.seed))
	due, bodies, err := drawLive(rng, l.rate, 2*n)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(vehicle.Profiles()))
	for _, p := range vehicle.Profiles() {
		names = append(names, string(p.Name))
	}
	if err := sharedBuildMS(res, names); err != nil {
		return nil, err
	}
	srv, _, err := startServer(liveWarm)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer srv.close()
	conns := newConns(l.conns)
	defer closeConns(conns)

	base := runOpen(srv.url, conns, due[:n], bodies[:n], false)
	failed := base.failures(res, "untraced phase A")

	tracedDue := make([]time.Duration, n)
	for i := range tracedDue {
		tracedDue[i] = due[n+i] - due[n-1]
	}
	u0, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	stopPoll := make(chan struct{})
	polled := make(chan int, 1)
	go func() { polled <- pollQueue(srv, stopPoll) }()
	traced := runOpen(srv.url, conns, tracedDue, bodies[n:], true)
	close(stopPoll)
	queueMax := <-polled
	u1, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	failed += traced.failures(res, "traced phase A")
	st, err := srv.status(conns[0])
	if err != nil {
		return nil, err
	}

	var ttfb, stream, late []float64
	backlog := 0
	for i, r := range traced.resps {
		s := traced.slots[i]
		late = append(late, msOf(s.late()))
		backlog = max(backlog, s.backlog)
		if r.err != nil {
			continue
		}
		traceRequest(tr, fmt.Sprintf("req-%d", n+i), traced.start.Add(s.due), r)
		ttfb = append(ttfb, msOf(r.first.Sub(r.sent)))
		stream = append(stream, msOf(r.done.Sub(r.first)))
	}
	d := u1.since(u0)
	rejected := st.Runs.RejectedQueue + st.Runs.RejectedQuota + st.Runs.RejectedDraining
	res.set("service.ttfb_ms", median(ttfb))
	res.set("service.stream_ms", median(stream))
	res.set("service.queue_depth_max", float64(queueMax))
	res.set("service.rejected_frac", float64(rejected)/float64(st.Runs.Accepted+rejected))
	res.set("loadgen.late_p99_ms", percentile(late, 99))
	res.set("loadgen.backlog_max", float64(backlog))
	res.set("exec.cpu_util", float64(d.cpu)/(float64(d.wall)*float64(runtime.GOMAXPROCS(0))))
	res.set("runtime.alloc_kb_per_mission", float64(d.allocBytes)/1024/float64(n))
	res.set("runtime.gc_cpu_frac", d.gcFrac)
	res.set("bench.trace_overhead_frac",
		median(latenciesMS(traced.slots))/median(latenciesMS(base.slots))-1)

	if err := l.direct(res, tr, traced, bodies[n:]); err != nil {
		return nil, err
	}
	if err := l.climb(res, srv.url, conns, rng, rc.seconds/20); err != nil {
		return nil, err
	}
	res.attempted = 2 * n
	res.failed = failed
	return res, nil
}

// pollQueue samples /statusz until stop closes and returns the deepest
// queue it saw.
func pollQueue(srv *server, stop <-chan struct{}) int {
	cl := newConn()
	defer cl.CloseIdleConnections()
	deepest := 0
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return deepest
		case <-tick.C:
			if st, err := srv.status(cl); err == nil {
				deepest = max(deepest, st.Pool.Queued)
			}
		}
	}
}

// direct runs every 16th traced request's mission in process on the
// stepped engine. Each mission's run report must equal the report line
// the service streamed for it, and the request's latency beyond the
// mission's own time is the service's overhead.
func (l liveLoad) direct(res *result, tr *tracer, p openPhase, bodies [][]byte) error {
	var jobs []engine.Job
	var specs []service.MissionSpec
	var idx []int
	for i := 0; i < len(bodies); i += 16 {
		if p.resps[i].err != nil {
			continue
		}
		var spec service.MissionSpec
		if err := json.Unmarshal(bodies[i], &spec); err != nil {
			return err
		}
		m, err := spec.Build()
		if err != nil {
			return err
		}
		jobs = append(jobs, engine.Job{Label: fmt.Sprintf("req-%d", i), Cfg: m.Cfg})
		specs = append(specs, m.Spec)
		idx = append(idx, i)
	}
	stepped := &steppedEngine{stats: &layerStats{}, tr: tr, replayEvery: 1}
	stepped.parent = tr.begin("direct", 0, l.name)
	out, err := stepped.Run(context.Background(), jobs, engine.Options{})
	tr.end(stepped.parent)
	if err != nil {
		return fmt.Errorf("direct pass: %w", err)
	}
	var overhead []float64
	same := 0
	for j, i := range idx {
		line, err := reportLine(specs[j], out[j].Telemetry)
		if err != nil {
			return err
		}
		if bytes.Equal(line, p.resps[i].last) {
			same++
		}
		r := p.resps[i]
		overhead = append(overhead, msOf(r.done.Sub(r.sent)-stepped.own[j]))
	}
	res.check(same == len(idx), "%s: %d of %d in-process missions report the bytes the service streamed", l.name, same, len(idx))
	stepped.checkReplays(res, l.name)
	stepped.stats.set(res)
	res.set("service.overhead_ms", median(overhead))
	res.set("dispatch.overhead_ms", median(overhead))
	return nil
}

// climb steps the open loop up the rate ladder, step seconds per rate,
// and stops at the first rate whose tail latency misses the limit, that
// fails a request, or whose last request went out later than the limit.
// Its requests probe overload on purpose, so they are not counted as the
// workload's operations.
func (l liveLoad) climb(res *result, url string, conns []*http.Client, rng *rand.Rand, step float64) error {
	best := 0.0
	for _, rate := range l.ladder {
		n := max(1, int(math.Round(rate*step)))
		due, bodies, err := drawLive(rng, rate, n)
		if err != nil {
			return err
		}
		p := runOpen(url, conns, due, bodies, false)
		lat := summarize(latenciesMS(p.slots))
		lastLate := p.slots[n-1].late()
		pass := lat.tail <= msOf(l.limit) && lastLate <= l.limit
		verdict := "meets the limit"
		if !pass {
			verdict = "misses the limit"
		}
		res.note("ladder %.0f/s: %d requests, p%g %.2f ms, last request %.2f ms late: %s",
			rate, n, lat.tailPct, lat.tail, msOf(lastLate), verdict)
		if !pass {
			break
		}
		best = rate
	}
	res.set("loadgen.max_ok_rate_per_s", best)
	return nil
}

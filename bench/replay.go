package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/trace"
)

// The committed corpus mission and its run-report golden, relative to
// the repository root. The benchmark only reads them.
var (
	replayTrace  = filepath.Join("internal", "sim", "testdata", "attack_mission.trace")
	replayGolden = filepath.Join("internal", "sim", "testdata", "attack_mission.report.golden.json")
)

// replayLoad is the service-replay workload: clients that each wait for
// their reply, submitting the recorded attack mission for replay. The
// trace is the input, so the seed has nothing to vary.
type replayLoad struct {
	name  string
	conns int
	// directRuns is how many times the traced run replays the mission in
	// process.
	directRuns int
}

// serviceReplay exercises the source and service layers differently from
// the live workload: replay instead of synthesis, and a 670 KB body
// whose trace decode is a visible part of each request.
func serviceReplay() replayLoad {
	return replayLoad{name: "service-replay", conns: 2, directRuns: 4}
}

// replayInput is the request body, the raw trace and the golden report
// line the service must stream for it.
type replayInput struct {
	raw, body, want []byte
}

func loadReplay(root string) (replayInput, error) {
	var in replayInput
	var err error
	if in.raw, err = os.ReadFile(filepath.Join(root, replayTrace)); err != nil {
		return in, err
	}
	golden, err := os.ReadFile(filepath.Join(root, replayGolden))
	if err != nil {
		return in, err
	}
	var want bytes.Buffer
	if err := json.Compact(&want, golden); err != nil {
		return in, fmt.Errorf("%s: %w", replayGolden, err)
	}
	in.want = want.Bytes()
	in.body, err = json.Marshal(map[string]string{"trace_b64": base64.StdEncoding.EncodeToString(in.raw)})
	return in, err
}

// loop runs the closed loop for dur. Every response's report line must
// equal the golden and its whole stream must equal ref's.
func (l replayLoad) loop(res *result, srv *server, conns []*http.Client, in replayInput, ref response, dur time.Duration, tr *tracer) ([]closedReq, time.Duration) {
	var mismatched atomic.Int64
	reqs, wall := closedLoop(l.conns, dur, func(conn, k int) response {
		r := post(conns[conn], srv.url, in.body)
		if r.err != nil {
			return r
		}
		if !bytes.Equal(r.last, in.want) || r.sum != ref.sum {
			mismatched.Add(1)
		}
		traceRequest(tr, fmt.Sprintf("req-%d", k), r.sent, r)
		return r
	})
	res.check(mismatched.Load() == 0, "%s: %d of %d responses differ from the golden report stream", l.name, mismatched.Load(), len(reqs))
	return reqs, wall
}

func (l replayLoad) run(rc *runConfig) (*result, error) {
	in, err := loadReplay(rc.root)
	if err != nil {
		return nil, err
	}
	if rc.tr != nil {
		return l.runTraced(rc, in)
	}
	res := newResult()
	srv, ref, setup, err := startServers(in.body, rc.seconds)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer srv.close()
	res.check(bytes.Equal(ref.last, in.want), "%s: warm-up response streams the golden report", l.name)
	res.set("setup_s", median(setup))
	conns := newConns(l.conns)
	defer closeConns(conns)

	u0, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	reqs, wall := l.loop(res, srv, conns, in, ref, time.Duration(rc.seconds*float64(time.Second)), nil)
	u1, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	lat, failed := closedLatenciesMS(reqs)
	sum := summarize(lat)
	res.attempted = len(reqs)
	res.failed = failed
	res.set("missions_per_s", float64(len(reqs)-failed)/wall.Seconds())
	res.set("cpu_ms_per_mission", msOf(u1.since(u0).cpu)/float64(len(reqs)-failed))
	res.set("rss_peak_mb", rss)
	res.set("latency_p50_ms", sum.p50)
	res.note("%d set-ups; closed loop, %d clients, %d requests: p50 %.3f ms, p%g %.3f ms",
		len(setup), l.conns, sum.n, sum.p50, sum.tailPct, sum.tail)
	return res, nil
}

// runTraced times trace decoding and the closed loop, untraced then
// traced on a third of the run each, and replays the mission in process
// on the stepped engine.
func (l replayLoad) runTraced(rc *runConfig, in replayInput) (*result, error) {
	res := newResult()
	tr := rc.tr
	var decoded *trace.Trace
	var decode []float64
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		d, err := trace.Decode(bytes.NewReader(in.raw))
		if err != nil {
			return nil, err
		}
		tr.add("trace.Decode", 0, "", t0, time.Now())
		decode = append(decode, msOf(time.Since(t0)))
		decoded = d
	}
	res.set("trace.decode_ms", median(decode))
	spec, err := service.SpecFromHeader(decoded.Header)
	if err != nil {
		return nil, err
	}
	if err := sharedBuildMS(res, []string{spec.RV}); err != nil {
		return nil, err
	}
	srv, ref, err := startServer(in.body)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer srv.close()
	conns := newConns(l.conns)
	defer closeConns(conns)

	third := time.Duration(rc.seconds / 3 * float64(time.Second))
	base, _ := l.loop(res, srv, conns, in, ref, third, nil)
	u0, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	traced, _ := l.loop(res, srv, conns, in, ref, third, tr)
	u1, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	baseLat, failedBase := closedLatenciesMS(base)
	tracedLat, failedTraced := closedLatenciesMS(traced)
	d := u1.since(u0)
	res.set("exec.cpu_util", float64(d.cpu)/(float64(d.wall)*float64(runtime.GOMAXPROCS(0))))
	res.set("runtime.alloc_kb_per_mission", float64(d.allocBytes)/1024/float64(len(traced)))
	res.set("runtime.gc_cpu_frac", d.gcFrac)
	res.set("bench.trace_overhead_frac", median(tracedLat)/median(baseLat)-1)

	var ttfb, stream []float64
	for _, r := range traced {
		if r.ok {
			ttfb = append(ttfb, msOf(r.first.Sub(r.sent)))
			stream = append(stream, msOf(r.done.Sub(r.first)))
		}
	}
	res.set("service.ttfb_ms", median(ttfb))
	res.set("service.stream_ms", median(stream))

	jobs := make([]engine.Job, l.directRuns)
	for i := range jobs {
		m, err := spec.Build()
		if err != nil {
			return nil, err
		}
		m.UseReplay(decoded)
		jobs[i] = engine.Job{Label: fmt.Sprintf("direct-%d", i), Cfg: m.Cfg}
	}
	stepped := &steppedEngine{stats: &layerStats{}, tr: tr, replayEvery: 1}
	stepped.parent = tr.begin("direct", 0, l.name)
	out, err := stepped.Run(context.Background(), jobs, engine.Options{})
	tr.end(stepped.parent)
	if err != nil {
		return nil, fmt.Errorf("direct pass: %w", err)
	}
	for i := range out {
		line, err := reportLine(spec, out[i].Telemetry)
		if err != nil {
			return nil, err
		}
		res.check(bytes.Equal(line, in.want), "%s: in-process replay %d reports the golden bytes", l.name, i)
	}
	stepped.checkReplays(res, l.name)
	stepped.stats.set(res)
	own := make([]float64, len(stepped.own))
	for i, d := range stepped.own {
		own[i] = msOf(d)
	}
	overhead := median(tracedLat) - median(own)
	res.set("service.overhead_ms", overhead)
	res.set("dispatch.overhead_ms", overhead)
	res.attempted = len(base) + len(traced)
	res.failed = failedBase + failedTraced
	return res, nil
}

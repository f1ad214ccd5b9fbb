package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// serverQueue is delorean-server's default queue depth.
const serverQueue = 256

// server is a mission service on a loopback listener, configured as
// delorean-server runs it by default.
type server struct {
	srv       *service.Server
	hs        *http.Server
	url       string
	serveDone chan error
}

// startServer boots a server, waits for /healthz and sends one warm-up
// request, whose response it returns.
func startServer(warm []byte) (*server, response, error) {
	srv := service.New(service.Config{Shards: runtime.GOMAXPROCS(0), QueueDepth: serverQueue})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, response{}, err
	}
	s := &server{
		srv:       srv,
		hs:        &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:       "http://" + ln.Addr().String(),
		serveDone: make(chan error, 1),
	}
	go func() { s.serveDone <- s.hs.Serve(ln) }()
	cl := newConn()
	defer cl.CloseIdleConnections()
	if err := s.healthz(cl); err != nil {
		return nil, response{}, errors.Join(err, s.close())
	}
	r := post(cl, s.url, warm)
	if r.err != nil {
		return nil, response{}, errors.Join(fmt.Errorf("warm-up request: %w", r.err), s.close())
	}
	return s, r, nil
}

func (s *server) healthz(cl *http.Client) error {
	resp, err := cl.Get(s.url + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// status reads /statusz.
func (s *server) status(cl *http.Client) (service.Status, error) {
	var st service.Status
	resp, err := cl.Get(s.url + "/statusz")
	if err != nil {
		return st, fmt.Errorf("statusz: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statusz: %w", err)
	}
	return st, nil
}

// close shuts the listener down, waits for the serving goroutine and
// stops the mission pool.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.serveDone
	s.srv.Close()
	return err
}

// startServers times server set-ups (see timeSetups): each boots a
// server, passes /healthz and serves one warm-up request, and is closed
// after it is timed. Then it starts the server the run measures, untimed,
// and returns it with its warm-up response.
func startServers(warm []byte, seconds float64) (*server, response, []float64, error) {
	times, err := timeSetups(seconds, func() (func() error, error) {
		s, _, err := startServer(warm)
		if err != nil {
			return nil, err
		}
		return s.close, nil
	})
	if err != nil {
		return nil, response{}, nil, err
	}
	s, r, err := startServer(warm)
	return s, r, times, err
}

// newConn is a client that holds one keep-alive connection, so a load
// generator's connection count is its client count.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func newConns(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = newConn()
	}
	return out
}

func closeConns(conns []*http.Client) {
	for _, c := range conns {
		c.CloseIdleConnections()
	}
}

// response is one POST /v1/missions round trip.
type response struct {
	err error
	// sent is when the request was written; first is when the accepted
	// line arrived; done is when the stream ended.
	sent, first, done time.Time
	// sum is the SHA-256 of the whole NDJSON stream.
	sum [32]byte
	// last is the stream's final line, the run report.
	last []byte
}

// post submits one mission and reads its NDJSON stream. A response that
// is not a 200 stream running from an accepted record to a run report is
// an error.
func post(cl *http.Client, url string, body []byte) response {
	r := response{sent: time.Now()}
	resp, err := cl.Post(url+"/v1/missions", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	r.first = time.Now()
	if err != nil {
		r.err = fmt.Errorf("status %d: first line: %w", resp.StatusCode, err)
		return r
	}
	rest, err := io.ReadAll(br)
	r.done = time.Now()
	if err != nil {
		r.err = fmt.Errorf("reading stream: %w", err)
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(first))
		return r
	}
	stream := append(first, rest...)
	r.sum = sha256.Sum256(stream)
	trimmed := bytes.TrimSuffix(stream, []byte("\n"))
	r.last = trimmed[bytes.LastIndexByte(trimmed, '\n')+1:]
	if !bytes.HasPrefix(first, []byte(`{"type":"accepted"`)) || !bytes.HasPrefix(r.last, []byte(`{"version"`)) {
		r.err = fmt.Errorf("stream does not run from an accepted record to a report: %.200s", stream)
	}
	return r
}

// closedReq is one closed-loop request's timing.
type closedReq struct {
	sent, first, done time.Time
	ok                bool
}

// closedLoop runs conns clients for dur; each sends its next request as
// soon as the previous one completes. send performs the k-th request
// overall on connection conn. It returns every request and the wall time
// until the last one ended, in the order the requests were sent. Each
// client appends only to its own slice.
func closedLoop(conns int, dur time.Duration, send func(conn, k int) response) ([]closedReq, time.Duration) {
	per := make([][]closedReq, conns)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := send(conn, int(next.Add(1))-1)
				per[conn] = append(per[conn], closedReq{sent: r.sent, first: r.first, done: r.done, ok: r.err == nil})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []closedReq
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].sent.Before(all[j].sent) })
	return all, wall
}

// closedLatenciesMS returns each request's latency in ms, failed ones as
// +Inf, and the number that failed.
func closedLatenciesMS(reqs []closedReq) ([]float64, int) {
	out := make([]float64, len(reqs))
	failed := 0
	for i, r := range reqs {
		if r.ok {
			out[i] = msOf(r.done.Sub(r.sent))
		} else {
			out[i] = math.Inf(1)
			failed++
		}
	}
	return out, failed
}

// reportLine renders a mission's run report as the service streams it:
// one compact line, without its newline.
func reportLine(spec service.MissionSpec, tel *telemetry.Mission) ([]byte, error) {
	rep, err := service.MissionReport(spec, tel)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteNDJSON(&buf); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// traceRequest records a request's span and its children: the wait in
// the load generator, the time to the accepted line, and the stream.
func traceRequest(tr *tracer, op string, due time.Time, r response) {
	id := tr.add("service.request", 0, op, due, r.done)
	tr.add("loadgen.wait", id, op, due, r.sent)
	tr.add("service.ttfb", id, op, r.sent, r.first)
	tr.add("service.stream", id, op, r.first, r.done)
}

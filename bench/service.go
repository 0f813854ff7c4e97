package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"numarck"
	"numarck/internal/checkpoint"
	"numarck/internal/obs"
	"numarck/internal/server"
	"numarck/internal/stats"
)

// spanHeader carries the id of the client span that caused a request,
// so the handler span can name it as its parent.
const spanHeader = "X-Bench-Span"

// fullEverySvc is the client's full-checkpoint period on service_mixed:
// iteration i is pushed with kind=full when i%16 == 0.
const fullEverySvc = 16

// verifyEvery is how many fetches lie between two whose output is kept
// and checked after the round.
const verifyEvery = 4

// serviceInstance is service_mixed: the daemon behind a real
// http.Server on a loopback port in this process, and svcClients
// closed-loop server.Clients, each with one keep-alive connection and
// one series, all in one tenant. Every round uses a fresh tenant, so
// rounds are identical.
type serviceInstance struct {
	out  *outcome
	sc   scale
	root string
	opt  numarck.Options

	srv    *server.Server
	hs     *http.Server
	served chan error
	mw     *spanMiddleware // nil on an untraced run
	rec    *obs.Recorder   // the clients' retry counter

	clients []*svcClient
	tenants []string
	pushes  int64
}

// svcClient is one closed-loop client and its inputs.
type svcClient struct {
	c      *server.Client
	rt     *spanTransport
	series string
	states [][]float64
	bodies [][]byte
}

// sampled is one timed fetch whose output is checked after the round.
type sampled struct {
	cl   *svcClient
	iter int
	body []byte
}

func setupService(e env, dir string, out *outcome) (instance, error) {
	s := &serviceInstance{
		out: out, sc: e.sc, root: dir,
		opt: numarck.Options{ErrorBound: errorBound, IndexBits: indexBits, Strategy: numarck.Clustering},
		rec: obs.NewRecorder(),
	}
	var err error
	if s.srv, err = server.New(server.Config{Root: dir, Opt: s.opt}); err != nil {
		return nil, err
	}
	handler := s.srv.Handler()
	if e.traced {
		s.mw = &spanMiddleware{next: handler}
		handler = s.mw
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: handler}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()

	for c := 0; c < svcClients; c++ {
		rt := &spanTransport{base: &http.Transport{MaxIdleConnsPerHost: 1}}
		cl := &svcClient{
			rt:     rt,
			series: fmt.Sprintf("s%d", c),
			states: e.gen.series(400+int64(c), smooth, e.sc.svcPoints, e.sc.svcIters),
			c: &server.Client{
				Base:  "http://" + ln.Addr().String(),
				HTTP:  &http.Client{Transport: rt},
				Retry: server.RetryPolicy{MaxAttempts: 4},
				Obs:   s.rec,
			},
		}
		for _, st := range cl.states {
			cl.bodies = append(cl.bodies, leBytes(st))
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

// spanTransport stamps each request with the client span in progress.
// One client goroutine owns it at a time.
type spanTransport struct {
	base *http.Transport
	cur  *span
}

// RoundTrip implements http.RoundTripper.
func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.cur != nil {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.Itoa(t.cur.ID))
	}
	return t.base.RoundTrip(r)
}

// spanMiddleware is the traced run's wrapper around the daemon's
// handler: a server-layer span per request, parented to the client span
// named in the request, and a count of non-2xx answers.
type spanMiddleware struct {
	next   http.Handler
	tr     atomic.Pointer[tracer]
	non2xx atomic.Int64
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler.
func (mw *spanMiddleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := mw.tr.Load()
	var sp *span
	if id, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil && tr != nil {
		name := "handle_fetch"
		if r.Method == http.MethodPost {
			name = "handle_push"
		}
		sp = tr.start(tr.byID(id), "server", name)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	mw.next.ServeHTTP(sw, r)
	sp.end()
	if sw.status < 200 || sw.status > 299 {
		mw.non2xx.Add(1)
	}
}

// clientRound is what one client measured in one round.
type clientRound struct {
	rs      roundStats
	out     outcome
	samples []sampled
}

// run is one client's closed loop for one round: push every iteration,
// fetch the iteration just pushed after every svcFetchEvery-th push.
func (cl *svcClient) run(sc scale, tr *tracer, res *clientRound) {
	var buf bytes.Buffer
	fetches := 0
	for i := 0; i < sc.svcIters; i++ {
		var q url.Values
		if i%fullEverySvc == 0 {
			q = url.Values{"kind": {"full"}}
		}
		op := tr.start(nil, harnessLayer, "write")
		cl.rt.cur = tr.start(op, "server.client", "push")
		t0 := time.Now()
		_, err := cl.c.Push(cl.series, i, bytes.NewReader(cl.bodies[i]), q)
		d := time.Since(t0)
		cl.rt.cur.end()
		op.end()
		res.rs.write(d, len(cl.bodies[i]))
		res.out.op(err)

		if (i+1)%sc.svcFetchEvery != 0 {
			continue
		}
		buf.Reset()
		op = tr.start(nil, harnessLayer, "read")
		cl.rt.cur = tr.start(op, "server.client", "fetch")
		t0 = time.Now()
		points, _, err := cl.c.Fetch(cl.series, i, &buf, false)
		d = time.Since(t0)
		cl.rt.cur.end()
		op.end()
		if err == nil && points != sc.svcPoints {
			err = fmt.Errorf("service_mixed: fetch %s@%d returned %d points, want %d", cl.series, i, points, sc.svcPoints)
		}
		res.rs.read(d, buf.Len())
		res.out.op(err)
		if err == nil && fetches%verifyEvery == 0 {
			res.samples = append(res.samples, sampled{cl, i, append([]byte(nil), buf.Bytes()...)})
		}
		fetches++
	}
	cl.rt.cur = nil
}

func (s *serviceInstance) round(rs *roundStats, tr *tracer) {
	tenant := fmt.Sprintf("t%d", len(s.tenants))
	s.tenants = append(s.tenants, tenant)
	if s.mw != nil {
		s.mw.tr.Store(tr)
	}
	results := make([]clientRound, len(s.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, cl := range s.clients {
		cl.c.Tenant = tenant
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(s.sc, tr, &results[c])
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	// Both throughputs are taken over the whole round: pushes and
	// fetches share the clients, the tenant lock and the disk, so a
	// gain for one that costs the other shows.
	rs.writeWall, rs.readWall = wall, wall
	for i := range results {
		r := &results[i]
		rs.writeMs = append(rs.writeMs, r.rs.writeMs...)
		rs.readMs = append(rs.readMs, r.rs.readMs...)
		rs.writeBytes += r.rs.writeBytes
		rs.readBytes += r.rs.readBytes
		s.pushes += int64(len(r.rs.writeMs))
		s.out.merge(&r.out)
		for _, smp := range r.samples {
			s.out.verified(fmt.Sprintf("service_mixed: %s/%s@%d", tenant, smp.cl.series, smp.iter), s.verify(smp))
		}
	}
}

// verify returns the error ÷ bound of one sampled fetch. The daemon
// encodes iteration i against its own reconstruction of i−1, so the
// bound is |x̂_i − x_i| ≤ E·|x̂_{i−1}|, with x̂_{i−1} fetched here,
// untimed; a full checkpoint must come back exact.
func (s *serviceInstance) verify(smp sampled) float64 {
	got, err := fromLE(smp.body)
	if err != nil {
		return inf
	}
	truth := smp.cl.states[smp.iter]
	if smp.iter%fullEverySvc == 0 {
		return exactErr(got, truth)
	}
	var buf bytes.Buffer
	if _, _, err := smp.cl.c.Fetch(smp.cl.series, smp.iter-1, &buf, false); err != nil {
		return inf
	}
	prev, err := fromLE(buf.Bytes())
	if err != nil {
		return inf
	}
	return stepErrOverBound(got, truth, prev, errorBound)
}

func (s *serviceInstance) finish(m metrics) {
	mr, err := s.clients[0].c.Metrics()
	if err != nil {
		s.out.check(err)
		return
	}
	var stored int64
	for _, tenant := range s.tenants {
		dir := filepath.Join(s.root, tenant)
		// The checkpoint files are what bytes_written accounts for.
		onDisk, err := dirBytes(dir, ".nmk")
		s.out.check(err)
		if got := mr.Tenants[tenant].Counters["bytes_written"]; got != onDisk {
			s.out.check(fmt.Errorf("service_mixed: tenant %s: /metrics bytes_written = %d, chain files on disk = %d", tenant, got, onDisk))
		}
		all, err := dirBytes(dir, "")
		s.out.check(err)
		stored += all
	}
	m.set("stored_bytes_per_user_byte", float64(stored)/float64(s.pushes*8*int64(s.sc.svcPoints)))
}

func (s *serviceInstance) layers(m metrics, tr *tracer) {
	s.out.check(codecLadder(m, chainPairs(s.clients[0].states), s.opt, filepath.Join(s.root, ".ladder")))

	m.set("server.handler_push_ms", median(tr.durations("server", "handle_push")))
	m.set("server.handler_fetch_ms", median(tr.durations("server", "handle_fetch")))
	m.set("server.client_push_ms", median(tr.durations("server.client", "push")))
	m.set("server.client_fetch_ms", median(tr.durations("server.client", "fetch")))
	m.set("server.http_overhead_ms", median(tr.selfOf("server.client")))
	m.set("server.status_non2xx", float64(s.mw.non2xx.Load()))
	m.set("server.client_retries", float64(s.rec.Snapshot().Counters["retries"]))

	mr, err := s.clients[0].c.Metrics()
	if err != nil {
		s.out.check(err)
		return
	}
	codec := 0.0
	for _, stage := range []string{"ratio", "table", "assign", "bitpack", "crc"} {
		codec += stageNs(mr.Process, stage)
	}
	m.set("server.codec_stage_ms_per_push", codec/1e6/float64(s.pushes))
	m.set("server.governor_waits", float64(mr.Governor.Waiting))
	m.set("server.commit_replays", float64(mr.Process.Counters["commit_replays"]))
	s.out.check(s.tenantStore(m))
}

// tenantStore times, on the last round's tenant directory, what every
// request pays below the handler: the writer open and close around a
// commit, the read view open, and the replay of the previous iteration
// a delta push is encoded against (one per depth below a full).
func (s *serviceInstance) tenantStore(m metrics) error {
	dir := filepath.Join(s.root, s.tenants[len(s.tenants)-1])
	var open, view, replay timer
	for i := 0; i < 3; i++ {
		err := open.time(func() error {
			st, err := checkpoint.Open(dir)
			if err != nil {
				return err
			}
			return st.Close()
		})
		if err != nil {
			return err
		}
		if err := view.time(func() error { _, err := checkpoint.OpenReadOnly(dir); return err }); err != nil {
			return err
		}
	}
	m.set("checkpoint.open_writer_ms", median(open.ns)/1e6)
	m.set("checkpoint.open_readonly_ms", median(view.ns)/1e6)
	rv, err := checkpoint.OpenReadOnly(dir)
	if err != nil {
		return err
	}
	for i := 1; i < min(s.sc.svcIters, 2*fullEverySvc); i++ {
		if i%fullEverySvc == 0 {
			continue
		}
		if err := replay.time(func() error { _, err := rv.Restart(s.clients[0].series, i-1); return err }); err != nil {
			return err
		}
	}
	m.set("server.prev_replay_ms", stats.Mean(replay.ns)/1e6)
	return nil
}

func (s *serviceInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A failed shutdown leaves nothing to clean up but the process.
	_ = s.hs.Shutdown(ctx)
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		s.out.check(err)
	}
	for _, cl := range s.clients {
		cl.rt.base.CloseIdleConnections()
	}
	_ = os.RemoveAll(s.root)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"pipemem/internal/core"
	"pipemem/internal/obs"
	"pipemem/internal/srv"
)

// serveClients is the number of closed-loop clients, one session and one
// connection each: a client sends its next request when the reply to the
// last one has been read, so there is no arrival schedule.
const serveClients = twins

// serveWorkload steps sessions of the ROADMAP's "8×8 steady point"
// through srv.Manager.Handler() behind a real loopback net/http server.
type serveWorkload struct {
	name string
	// batch is the cycles of one step request; reqPerWin the requests of
	// one window (~0.8 ms undisturbed).
	batch     int64
	reqPerWin int
	// warmReq is the warm-up requests per client that are part of set-up
	// (connection open, first telemetry row); settle the windows then run
	// untimed.
	warmReq int
	settle  int
	// Every scrapeEvery-th request of a client is followed by a GET
	// /metrics, every ckptEvery-th by a POST checkpoint (0 = never).
	scrapeEvery, ckptEvery int
}

// steadySpec is the session every serve workload and ladder rung runs.
func steadySpec(cycles int64, seed uint64) srv.SessionConfig {
	return srv.SessionConfig{Ports: 8, Buf: 256, Cycles: cycles, Traffic: "permutation", Load: 1, Seed: seed}
}

// server is a session server on a loopback port.
type server struct {
	mgr  *srv.Manager
	hs   *http.Server
	base string
	done chan error
}

func startServer(ckptDir string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mgr := srv.NewManager(srv.Options{CkptDir: ckptDir, MaxSessions: 64})
	s := &server{
		mgr: mgr, hs: &http.Server{Handler: mgr.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// client is one closed-loop HTTP client with its own connection. Every
// request it makes is an op: a transport error or a non-2xx reply fails.
type client struct {
	hc   *http.Client
	base string
	id   string // its session

	attempted, failed int64
	firstErr          error
	delivered         int64 // from the last step reply
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// do sends one request and decodes the JSON reply into v. It returns the
// size of what it did not decode: the whole body when v is nil.
func (c *client) do(method, url string, body []byte, v any) (int64, error) {
	c.attempted++
	n, err := c.roundTrip(method, url, body, v)
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	return n, err
}

func (c *client) roundTrip(method, url string, body []byte, v any) (int64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort, for the message only
		return 0, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return 0, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	// Read to EOF so the connection is reused.
	rest, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return rest, nil
}

// create makes the client's session.
func (c *client) create(cfg srv.SessionConfig) error {
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	var st srv.Status
	if _, err := c.do("POST", c.base+"/sessions", body, &st); err != nil {
		return err
	}
	c.id = st.ID
	return nil
}

// stepReply is the part of the step reply the client checks.
type stepReply struct {
	Advanced  int64  `json:"advanced"`
	State     string `json:"state"`
	Delivered int64  `json:"delivered"`
}

// step posts one step request and checks that it advanced in full.
func (c *client) step(url string, cycles int64) (stepReply, error) {
	var rep stepReply
	if _, err := c.do("POST", url, nil, &rep); err != nil {
		return rep, err
	}
	c.delivered = rep.Delivered
	if rep.Advanced != cycles && rep.State != "done" {
		c.failed++
		err := fmt.Errorf("step advanced %d of %d cycles", rep.Advanced, cycles)
		if c.firstErr == nil {
			c.firstErr = err
		}
		return rep, err
	}
	return rep, nil
}

func (c *client) sessionURL(suffix string) string { return c.base + "/sessions/" + c.id + suffix }

func stepURL(c *client, batch int64) string {
	return fmt.Sprintf("%s?cycles=%d", c.sessionURL("/step"), batch)
}

// serveRig is a running server with its clients and sessions.
type serveRig struct {
	srv     *server
	clients [serveClients]*client
	ckptDir string
}

func (g *serveRig) close() error {
	for _, c := range g.clients {
		if c != nil {
			c.hc.CloseIdleConnections()
		}
	}
	err := g.srv.stop()
	if rerr := os.RemoveAll(g.ckptDir); err == nil {
		err = rerr
	}
	return err
}

// rig starts a server and gives each client a session of the steady spec
// that outlasts cycles, warmed up by warmReq step requests. It returns
// the set-up time: starting the server plus the faster client's session
// and warm-up.
func (w serveWorkload) rig(o opts, cycles int64) (*serveRig, float64, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(o.outDir, "ckpt-*")
	if err != nil {
		return nil, 0, err
	}
	s, err := startServer(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	g := &serveRig{srv: s, ckptDir: dir}
	started := time.Since(t0).Seconds()
	warmed, err := onTwins(func(i int) error {
		c := newClient(s.base)
		g.clients[i] = c
		// Past the stepped cycles a session would drain and finish; the
		// margin keeps it live.
		if err := c.create(steadySpec(cycles+int64(w.warmReq)*w.batch+(1<<20), o.seed+uint64(i))); err != nil {
			return err
		}
		url := stepURL(c, w.batch)
		for k := 0; k < w.warmReq; k++ {
			if _, err := c.step(url, w.batch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		g.close()
		return nil, 0, err
	}
	return g, started + warmed, nil
}

// serveLoad is the clients' side of a timed pass: one window function per
// client and what each has measured since start.
type serveLoad struct {
	g         *serveRig
	windows   [serveClients]func()
	lat       [][]int64           // per client, one latency per step request
	delivered [serveClients]int64 // cells each client's session delivered
}

// load prepares a timed pass of nWin windows over the rig's clients. With
// a tracer, every 16th window of each client is recorded as spans.
func (w serveWorkload) load(g *serveRig, nWin int, tr *tracer, root int64) *serveLoad {
	l := &serveLoad{g: g, lat: make([][]int64, serveClients)}
	for i, c := range g.clients {
		l.lat[i] = make([]int64, 0, nWin*w.reqPerWin)
		l.windows[i] = w.clientWindow(c, &l.lat[i], tr, root)
	}
	l.start()
	return l
}

// start opens the pass's books: what was measured before does not count.
func (l *serveLoad) start() {
	for i, c := range l.g.clients {
		l.lat[i] = l.lat[i][:0]
		l.delivered[i] = -c.delivered
	}
}

// done closes the pass's books.
func (l *serveLoad) done() {
	for i, c := range l.g.clients {
		l.delivered[i] += c.delivered
	}
}

// rate sums each client's quiet-window rate over pass p.
func (l *serveLoad) rate(p pass) float64 {
	var sum float64
	for i, d := range l.delivered {
		sum += rate(d, len(p.durs[i]), fastest(p.durs[i]))
	}
	return sum
}

// clientWindow returns the function that sends one window of a client's
// requests, appending each step's latency to lat.
func (w serveWorkload) clientWindow(c *client, lat *[]int64, tr *tracer, root int64) func() {
	url := stepURL(c, w.batch)
	req, wi := 0, 0
	return func() {
		traced := tr != nil && wi%16 == 0
		wi++
		var win int64
		if traced {
			win = tr.open("window", root)
		}
		prev := time.Now()
		for k := 0; k < w.reqPerWin; k++ {
			c.step(url, w.batch) // a failure is already counted against the client
			now := time.Now()
			*lat = append(*lat, int64(now.Sub(prev)))
			if traced {
				end := tr.now()
				tr.add("http.step", win, end-int64(now.Sub(prev)), end)
			}
			prev = now
			req++
			if w.scrapeEvery > 0 && req%w.scrapeEvery == 0 {
				c.do("GET", c.base+"/metrics", nil, nil)
				prev = time.Now()
			}
			if w.ckptEvery > 0 && req%w.ckptEvery == 0 {
				c.do("POST", c.sessionURL("/checkpoint"), nil, nil)
				prev = time.Now()
			}
		}
		if traced {
			tr.close(win)
		}
	}
}

// simStats reads the simulated statistics of both sessions over HTTP:
// RunResult from /result, the p99 from the cut-latency histogram of
// /metrics.json (power-of-two buckets, so it is a bucket's upper bound).
func (g *serveRig) simStats(r *result) error {
	var offered, delivered, dropped int64
	var util, latSum, p99 float64
	c0 := g.clients[0]
	for _, c := range g.clients {
		var rr struct {
			Result core.RunResult `json:"result"`
		}
		if _, err := c.do("GET", c.sessionURL("/result"), nil, &rr); err != nil {
			return err
		}
		res := rr.Result
		offered, delivered, dropped = offered+res.Offered, delivered+res.Delivered, dropped+res.Dropped
		util += res.Utilization / serveClients
		latSum += res.MeanCutLatency * float64(res.Delivered)
		if res.CutLatencyOverflow != 0 {
			r.fail("session %s: cut-latency histogram overflowed %d times", c.id, res.CutLatencyOverflow)
		}
		if res.Corrupt != 0 {
			r.fail("session %s: %d corrupt cells", c.id, res.Corrupt)
		}
	}
	var snaps map[string]obs.Snapshot
	if _, err := c0.do("GET", c0.base+"/metrics.json", nil, &snaps); err != nil {
		return err
	}
	for _, c := range g.clients {
		h, ok := snaps[c.id].Histograms["pipemem_cut_latency_cycles"]
		if !ok || h.Count == 0 {
			return fmt.Errorf("session %s exposes no cut-latency histogram", c.id)
		}
		for _, b := range h.Buckets {
			if float64(b.N) >= 0.99*float64(h.Count) {
				if b.Inf {
					r.fail("session %s: p99 cut latency is beyond the exposition's last bucket", c.id)
				}
				if float64(b.Le) > p99 {
					p99 = float64(b.Le)
				}
				break
			}
		}
	}
	if offered == 0 || delivered == 0 {
		return fmt.Errorf("sessions delivered no cell")
	}
	r.e2e("sim_util", util)
	r.e2e("sim_cut_latency_mean_cycles", latSum/float64(delivered))
	r.e2e("sim_cut_latency_p99_cycles", p99)
	r.e2e("sim_accepted_frac", 1-float64(dropped)/float64(offered))
	return nil
}

// checkBitIdentity steps a finite session over HTTP in uneven batches
// until it is done and compares its RunResult with core.RunTraffic on the
// same spec: the repo's bit-identity invariant, checked from outside.
func (g *serveRig) checkBitIdentity(o opts, r *result) error {
	cfg := srv.SessionConfig{
		Ports: 8, Buf: 256, Cycles: o.scaled(200_000),
		Traffic: "bernoulli", Load: 0.9, Seed: o.seed + serveClients,
	}
	c := g.clients[0]
	saved := c.id
	defer func() { c.id = saved }()
	if err := c.create(cfg); err != nil {
		return err
	}
	batches := []int64{1, 7, 64, 1000, 4096, 33333}
	for i := 0; ; i++ {
		n := batches[i%len(batches)]
		rep, err := c.step(stepURL(c, n), n)
		if err != nil {
			return err
		}
		if rep.State == "done" {
			break
		}
		if i > 1<<16 {
			return fmt.Errorf("finite session still %q after %d steps", rep.State, i)
		}
	}
	var served struct {
		Result core.RunResult `json:"result"`
	}
	if _, err := c.do("GET", c.sessionURL("/result"), nil, &served); err != nil {
		return err
	}
	sw, cs, err := parts(cfg)
	if err != nil {
		return err
	}
	batch, err := core.RunTraffic(sw, cs, cfg.Cycles)
	if err != nil {
		return err
	}
	a, _ := json.Marshal(served.Result) // RunResult holds only numbers and slices of them
	b, _ := json.Marshal(batch)
	if !bytes.Equal(a, b) {
		c.failed++
		r.fail("served RunResult differs from core.RunTraffic on the same spec:\n served %s\n batch  %s", a, b)
	}
	return nil
}

// tally folds the clients' op counts into the result.
func (g *serveRig) tally(r *result) {
	for _, c := range g.clients {
		r.Attempted += c.attempted
		r.Failed += c.failed
		if c.firstErr != nil {
			r.fail("client %s: %v", c.id, c.firstErr)
		}
	}
}

func (w serveWorkload) run(o opts) (*result, error) {
	r := newResult(w.name, o, false)
	nWin := o.windows(1)
	var g *serveRig
	var l *serveLoad
	hp, setupS, err := rounds{
		nWin: nWin,
		setup: func(keep bool) (float64, error) {
			rig, took, err := w.rig(o, int64(nWin*w.reqPerWin)*w.batch)
			switch {
			case err != nil:
			case keep:
				g = rig
			default:
				err = rig.close()
			}
			return took, err
		},
		windows: func() []func() {
			l = w.load(g, nWin, nil, 0)
			return l.windows[:]
		},
		settle:  o.settle(w.settle),
		settled: func() { l.start() },
	}.run(o)
	if g == nil {
		return nil, err
	}
	if err == nil {
		l.done() // before the checks below step other sessions
		err = g.simStats(r)
	}
	if err == nil {
		err = g.checkBitIdentity(o, r)
	}
	g.tally(r)
	if cerr := g.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	r.e2e("cells_per_sec", l.rate(hp))
	r.e2e("step_latency_p50_ms", float64(quietestP50(l.lat))/1e6)
	r.Samples["step_latency_p50_ms"] = int64(len(pooled(l.lat)))
	r.e2e("setup_s", setupS)
	r.e2e("heap_peak_mb", float64(hp.heapPeak)/mib)
	r.e2e("ops_ok_frac", 1-float64(r.Failed)/float64(r.Attempted))
	return r, nil
}

func (w serveWorkload) runTraced(o opts) (*result, error) {
	r := newResult(w.name, o, true)
	o.setups = 1
	nWin := o.windows(1.0 / 4)
	cycles := int64(nWin*w.reqPerWin) * w.batch

	// Untraced reference pass, then the same requests with client-side
	// spans: the difference is the tracing overhead.
	g, _, err := w.rig(o, 2*cycles)
	if err != nil {
		return nil, err
	}
	ref := w.load(g, nWin, nil, 0)
	hp := timedPass(nWin, nil, ref.windows[:]...)
	ref.done()
	tr := newTracer()
	root := tr.open("workload", 0)
	traced := w.load(g, nWin, tr, root)
	tp := timedPass(nWin, nil, traced.windows[:]...)
	traced.done()
	tr.close(root)

	var scrapeBytes int64
	scrapeMS, err := repeatMS(9, func() (err error) {
		scrapeBytes, err = g.clients[0].do("GET", g.srv.base+"/metrics", nil, nil)
		return err
	})
	if err == nil {
		r.layer("obs.scrape_ms", scrapeMS)
		r.layer("obs.scrape_bytes", float64(scrapeBytes))
		err = g.checkBitIdentity(o, r)
	}
	g.tally(r)
	if cerr := g.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	s := sortedCopy(pooled(ref.lat))
	var requests, failed int64
	for _, c := range g.clients {
		requests, failed = requests+c.attempted, failed+c.failed
	}
	r.layer("srv.http.step_latency_p99_ms", float64(quantile(s, 0.99))/1e6)
	r.layer("srv.http.step_latency_max_ms", float64(s[len(s)-1])/1e6)
	r.Samples["srv.http.step_latency"] = int64(len(s))
	r.layer("srv.http.requests", float64(requests))
	r.layer("srv.http.failed", float64(failed))
	r.layer("srv.allocs_per_request", float64(hp.mallocs)/float64(len(s)))
	r.noise(pooled(hp.durs))
	r.layer("trace.overhead_frac", 1-traced.rate(tp)/ref.rate(hp))
	r.layer("trace.timer_cost_ns", float64(tr.timerNS))

	if err := w.ladder(o, r, tr); err != nil {
		return nil, err
	}
	if err := probes(o, r); err != nil {
		return nil, err
	}
	return r, tr.write(o, r)
}

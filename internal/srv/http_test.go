package srv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipemem/internal/bufmgr"
	"pipemem/internal/ckpt"
	"pipemem/internal/core"
)

// TestHTTPStatusMapping pins the error → status contract, in particular
// the satellite requirement that ErrBadConfig-shaped errors and
// ckpt.ErrStalled land on distinct codes.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 200},
		{ErrBadSpec, 400},
		{badSpecf("cycles must be positive"), 400},
		{ErrNoCheckpointDir, 400},
		{fmt.Errorf("ckpt: %w: bad ports", core.ErrBadConfig), 400},
		{fmt.Errorf("%w: unknown policy", bufmgr.ErrBadConfig), 400},
		{ErrNotFound, 404},
		{ErrBusy, 409},
		{ErrFinished, 409},
		{fmt.Errorf("ckpt: %w: no progress", ckpt.ErrStalled), 409},
		{ErrTooManySessions, 429},
		{ErrClosed, 503},
		{fmt.Errorf("%w: request body: %w", ErrBadSpec, &http.MaxBytesError{Limit: maxBodyBytes}), 413},
		{errors.New("disk on fire"), 500},
	}
	for _, c := range cases {
		if got := HTTPStatus(c.err); got != c.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// do issues one request against the test server and decodes the JSON
// response into out (skipped when out is nil), checking the status code.
func do(t *testing.T, client *http.Client, method, url string, body string, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d\nbody: %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON: %v\nbody: %s", method, url, err, raw)
		}
	}
}

// getBody fetches a non-JSON surface (metrics exposition, series JSONL).
func getBody(t *testing.T, client *http.Client, url string) string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d\nbody: %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}

// TestHTTPSessionLifecycle drives the full API surface over a real HTTP
// round trip: create, status, step, inject, fork, checkpoint, free-run,
// pause, result, series, metrics, restore, delete — plus the 4xx/409
// paths for each.
func TestHTTPSessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Options{MaxSessions: 4, StepMax: 100000, CkptDir: dir, TelemetryEvery: 32})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	c := ts.Client()

	// Empty fleet renders [] (not null).
	var list []Status
	do(t, c, "GET", ts.URL+"/sessions", "", 200, &list)
	if list == nil || len(list) != 0 {
		t.Fatalf("empty list: %v", list)
	}

	// Bad configs: malformed JSON, missing cycles, unknown traffic, bad
	// policy, a key SessionConfig does not have (a typo, the retired
	// bypass knob) — none registers a session.
	do(t, c, "POST", ts.URL+"/sessions", `{"cycles":`, 400, nil)
	do(t, c, "POST", ts.URL+"/sessions", `{}`, 400, nil)
	do(t, c, "POST", ts.URL+"/sessions", `{"cycles":100,"traffic":"fractal"}`, 400, nil)
	do(t, c, "POST", ts.URL+"/sessions", `{"cycles":100,"policy":"nonsense"}`, 400, nil)
	do(t, c, "POST", ts.URL+"/sessions", `{"cycles":100,"polcy":"dt:alpha=2"}`, 400, nil)
	do(t, c, "POST", ts.URL+"/sessions", `{"cycles":100,"ecc":true,"bypass":3}`, 400, nil)
	do(t, c, "GET", ts.URL+"/sessions", "", 200, &list)
	if len(list) != 0 {
		t.Fatalf("refused creates registered %d sessions", len(list))
	}

	// Create a trace session.
	var st Status
	do(t, c, "POST", ts.URL+"/sessions",
		`{"name":"demo","ports":2,"buf":8,"cycles":400,"traffic":"trace","schedule":[[1,0]]}`, 201, &st)
	if st.ID != "demo" || st.State != "idle" || st.Ports != 2 || st.TargetCycles != 400 {
		t.Fatalf("created status: %+v", st)
	}

	// Unknown id → 404 everywhere; duplicate name → 400.
	do(t, c, "GET", ts.URL+"/sessions/ghost", "", 404, nil)
	do(t, c, "POST", ts.URL+"/sessions/ghost/step?cycles=5", "", 404, nil)
	do(t, c, "DELETE", ts.URL+"/sessions/ghost", "", 404, nil)
	do(t, c, "POST", ts.URL+"/sessions", `{"name":"demo","cycles":100}`, 400, nil)

	// Step: missing/bad/over-cap cycles → 400, good → 200 with progress.
	do(t, c, "POST", ts.URL+"/sessions/demo/step", "", 400, nil)
	do(t, c, "POST", ts.URL+"/sessions/demo/step?cycles=nope", "", 400, nil)
	do(t, c, "POST", ts.URL+"/sessions/demo/step?cycles=200000", "", 400, nil)
	var step stepResponse
	do(t, c, "POST", ts.URL+"/sessions/demo/step?cycles=64", "", 200, &step)
	if step.Advanced != 64 || step.Cycle != 64 {
		t.Fatalf("step response: %+v", step)
	}

	// Inject more trace rows; bad rows → 400.
	do(t, c, "POST", ts.URL+"/sessions/demo/inject", `{"slots":[[0,1],[1,0]]}`, 200, nil)
	do(t, c, "POST", ts.URL+"/sessions/demo/inject", `{"slots":[[9,9]]}`, 400, nil)
	do(t, c, "POST", ts.URL+"/sessions/demo/inject", `{}`, 400, nil)

	// Fork (server-assigned id) and checkpoint while idle.
	var fk Status
	do(t, c, "POST", ts.URL+"/sessions/demo/fork", "", 201, &fk)
	if fk.ID == "" || fk.ID == "demo" || fk.Cycle != 64 {
		t.Fatalf("fork status: %+v", fk)
	}
	var ck map[string]string
	do(t, c, "POST", ts.URL+"/sessions/demo/checkpoint", "", 200, &ck)
	if ck["checkpoint"] != "demo.ckpt" {
		t.Fatalf("checkpoint response: %v", ck)
	}

	// Shared /metrics: session labels for the server registry and each
	// live session, one TYPE header per metric name.
	expo := getBody(t, c, ts.URL+"/metrics")
	for _, want := range []string{`session="server"`, `session="demo"`, fmt.Sprintf("session=%q", fk.ID)} {
		if !strings.Contains(expo, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, expo)
		}
	}
	for _, line := range strings.Split(expo, "\n") {
		name, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		if n := strings.Count(expo, "# TYPE "+name+"\n"); n != 1 {
			t.Fatalf("%d TYPE headers for %q", n, name)
		}
	}
	do(t, c, "GET", ts.URL+"/metrics.json", "", 200, &map[string]json.RawMessage{})

	// Per-session scrape and telemetry.
	if one := getBody(t, c, ts.URL+"/sessions/demo/metrics"); !strings.Contains(one, "# TYPE") {
		t.Fatalf("per-session scrape empty:\n%s", one)
	}
	series := getBody(t, c, ts.URL+"/sessions/demo/series")
	if !strings.Contains(series, `"cycle":`) || !strings.Contains(series, `"buffered":`) {
		t.Fatalf("series JSONL: %s", series)
	}

	// ErrBusy, deterministically: a session with an enormous run cannot
	// finish between requests, so stepping it mid-free-run must 409.
	do(t, c, "POST", ts.URL+"/sessions", `{"name":"long","ports":2,"buf":8,"cycles":2000000000}`, 201, nil)
	do(t, c, "POST", ts.URL+"/sessions/long/run", "", 200, nil)
	do(t, c, "POST", ts.URL+"/sessions/long/run", "", 200, nil) // idempotent
	do(t, c, "POST", ts.URL+"/sessions/long/step?cycles=5", "", 409, nil)
	do(t, c, "POST", ts.URL+"/sessions/long/pause", "", 200, &st)
	if st.State != "idle" {
		t.Fatalf("paused state %q", st.State)
	}
	do(t, c, "DELETE", ts.URL+"/sessions/long", "", 200, nil)

	// Free-run demo to completion (a tiny run: poll briefly), then read
	// the frozen result; further run/step → 409.
	do(t, c, "POST", ts.URL+"/sessions/demo/run", "", 200, nil)
	s, err := m.Get("demo")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.State() == StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("demo free-run did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	var res resultResponse
	do(t, c, "GET", ts.URL+"/sessions/demo/result", "", 200, &res)
	if res.Partial || res.State != "done" || res.Result.Delivered != 6 {
		t.Fatalf("final result: %+v", res)
	}
	do(t, c, "POST", ts.URL+"/sessions/demo/run", "", 409, nil)
	do(t, c, "POST", ts.URL+"/sessions/demo/step?cycles=1", "", 409, nil)
	do(t, c, "POST", ts.URL+"/sessions/demo/inject", `{"slots":[[0,1]]}`, 409, nil)

	// Restore the cycle-64 checkpoint through the API; the revived run
	// must finish bit-identical to the live one (both passed cycle 64 with
	// the same extended schedule).
	do(t, c, "POST", ts.URL+"/sessions", `{"name":"revived","restore":"demo.ckpt"}`, 201, nil)
	do(t, c, "POST", ts.URL+"/sessions/revived/step?cycles=100000", "", 200, nil)
	var res2 resultResponse
	do(t, c, "GET", ts.URL+"/sessions/revived/result", "", 200, &res2)
	got, _ := json.Marshal(res2.Result)
	want, _ := json.Marshal(res.Result)
	if string(got) != string(want) {
		t.Fatalf("restored run diverged:\n got %s\nwant %s", got, want)
	}
	// Restoring a nonexistent checkpoint → 400.
	do(t, c, "POST", ts.URL+"/sessions", `{"restore":"ghost.ckpt"}`, 400, nil)

	// Session cap: demo, fork, revived are live (3 of 4); one more fits,
	// the next → 429.
	do(t, c, "POST", ts.URL+"/sessions", `{"cycles":100}`, 201, nil)
	do(t, c, "POST", ts.URL+"/sessions", `{"cycles":100}`, 429, nil)

	// Delete and verify it is gone from both the API and /metrics.
	do(t, c, "DELETE", ts.URL+"/sessions/demo", "", 200, nil)
	do(t, c, "GET", ts.URL+"/sessions/demo", "", 404, nil)
	if expo := getBody(t, c, ts.URL+"/metrics"); strings.Contains(expo, `session="demo"`) {
		t.Fatal("/metrics still carries the deleted session")
	}
}

// TestRetiredFaultKindRefused: a create request whose fault plan names the
// retired "ctrl" kind is a bad spec — 400, naming the kind — and registers
// no session.
func TestRetiredFaultKindRefused(t *testing.T) {
	m := NewManager(Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	c := ts.Client()
	var e struct{ Error string }
	do(t, c, "POST", ts.URL+"/sessions",
		`{"name":"ctrl","ports":4,"buf":64,"cycles":2000,"load":0.3,"seed":1,"fault_plan":"@50 ctrl stage=1 op=R out=0 addr=3\n"}`, 400, &e)
	if !strings.Contains(e.Error, `unknown fault kind "ctrl"`) {
		t.Fatalf("error %q does not name the ctrl kind", e.Error)
	}
	var list []Status
	do(t, c, "GET", ts.URL+"/sessions", "", 200, &list)
	if len(list) != 0 {
		t.Fatalf("the refused create registered %d sessions", len(list))
	}
	do(t, c, "GET", ts.URL+"/sessions/ctrl", "", 404, nil)
}

// TestInjectLandsInTheNextCycle pins when a row injected into an idle trace
// session reaches the switch: the session has played its schedule out and
// sat idle for a hundred cycles (a served session carries an observer, so
// every one of them was stepped), and the row must land where it always has
// — in the first cycle after the request — however idle cycles are driven
// underneath.
func TestInjectLandsInTheNextCycle(t *testing.T) {
	m := NewManager(Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	c := ts.Client()
	do(t, c, "POST", ts.URL+"/sessions",
		`{"name":"idle","ports":2,"buf":8,"cycles":400,"traffic":"trace","schedule":[[1,0]]}`, 201, nil)
	var st stepResponse
	do(t, c, "POST", ts.URL+"/sessions/idle/step?cycles=101", "", 200, &st)
	if st.Offered != 2 || st.Delivered != 2 || st.Resident != 0 {
		t.Fatalf("before the inject: %+v", st)
	}
	do(t, c, "POST", ts.URL+"/sessions/idle/inject", `{"slots":[[0,1]]}`, 200, nil)
	var landed, delivered int64
	for landed == 0 || delivered == 0 {
		do(t, c, "POST", ts.URL+"/sessions/idle/step?cycles=1", "", 200, &st)
		if landed == 0 && st.Offered == 4 {
			landed = st.Cycle
		}
		if delivered == 0 && st.Delivered == 4 {
			delivered = st.Cycle
		}
		if st.Cycle > 300 {
			t.Fatalf("the injected row never landed: %+v", st)
		}
	}
	if landed != 102 || delivered != 108 {
		t.Fatalf("injected at cycle 101: landed in the cycle ending at %d, delivered by %d", landed, delivered)
	}
}

// FuzzInjectBody sends arbitrary bytes to POST /sessions/{id}/inject on a
// small trace session audited every cycle. The answer is 200 with the rows
// appended to the schedule, or 400, 409 or 413 with an error body and the
// schedule untouched — never a panic, never another status — and the
// session then steps to its end without error.
func FuzzInjectBody(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"slots":[[0,1],[1,0]]}`,
		`{"slots":[[-1,-1],[1,1],[0,-1]]}`,
		`{"slots":[[9,9]]}`,
		`{"slots":[[0]]}`,
		`{"slots":[[0,1,1]]}`,
		`{"slots":[]}`,
		`{"slots":null}`,
		`{"slots":[[0,1]]} trailing`,
		`{"slots":[[1e3,0]]}`,
		`{"slots":[[0,1]],"slots":[[1,0],[1,0]]}`,
		`[[0,1]]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m := NewManager(Options{})
		h := m.Handler()
		serve := func(url string, body io.Reader) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", url, body))
			return rec
		}
		if rec := serve("/sessions", strings.NewReader(
			`{"name":"f","ports":2,"buf":8,"cycles":64,"traffic":"trace","schedule":[[1,0]],"audit_every":1}`)); rec.Code != 201 {
			t.Fatalf("create: %d %s", rec.Code, rec.Body)
		}
		s, err := m.Get("f")
		if err != nil {
			t.Fatal(err)
		}
		before := len(s.sim.Spec().Traffic.Schedule)
		rec := serve("/sessions/f/inject", bytes.NewReader(body))
		after := s.sim.Spec().Traffic.Schedule
		switch rec.Code {
		case 200:
			var reply struct{ Slots int }
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatalf("200 with a body that is not the reply: %v", err)
			}
			if reply.Slots < 1 || len(after) != before+reply.Slots {
				t.Fatalf("200 for %d rows, but the schedule went from %d to %d", reply.Slots, before, len(after))
			}
		case 400, 409, 413:
			var e struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d without an error body: %s", rec.Code, rec.Body)
			}
			if len(after) != before {
				t.Fatalf("%d, but the schedule went from %d to %d rows", rec.Code, before, len(after))
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		for s.State() == StateIdle {
			if _, err := s.Step(1 << 10); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestPanickingSessionFailsAlone: a panic inside one session's step — once
// in free-run, once in a synchronous step request — fails that session,
// with the panic as the terminal error its result carries, and leaves the
// rest of the fleet serving.
func TestPanickingSessionFailsAlone(t *testing.T) {
	m := NewManager(Options{FreeRunBatch: 1024, CkptDir: t.TempDir()})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	client := ts.Client()
	mk := func(name string) *Session {
		s, err := m.Create(SessionConfig{Name: name, Ports: 4, Buf: 32, Cycles: 20000, Load: 0.5, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	boom := func(c int64) {
		if c == 5000 {
			panic("boom at 5000")
		}
	}
	free, stepped, calm := mk("free"), mk("stepped"), mk("calm")
	free.sim.Runner().PreTick = boom
	stepped.sim.Runner().PreTick = boom

	if err := free.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for free.State() == StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("the panicking free-run never stopped")
		}
		time.Sleep(time.Millisecond)
	}
	do(t, client, "POST", ts.URL+"/sessions/stepped/step?cycles=8000", "", http.StatusInternalServerError, nil)

	for _, s := range []*Session{free, stepped} {
		if st := s.Status(); st.State != "failed" || st.Cycle != 5000 {
			t.Fatalf("%s: status %+v, want failed at cycle 5000", s.ID(), st)
		}
		res, partial, err := s.Result()
		if !errors.Is(err, ErrPanicked) || !strings.Contains(err.Error(), "boom at 5000") || partial {
			t.Fatalf("%s: result partial=%v err=%v, want the frozen panic", s.ID(), partial, err)
		}
		if res.Offered == 0 {
			t.Fatalf("%s: no partial tallies survived: %+v", s.ID(), res)
		}
		var got resultResponse
		do(t, client, "GET", ts.URL+"/sessions/"+s.ID()+"/result", "", http.StatusOK, &got)
		if got.State != "failed" || !strings.Contains(got.Error, "boom at 5000") {
			t.Fatalf("%s: GET /result = %+v", s.ID(), got)
		}
		do(t, client, "POST", ts.URL+"/sessions/"+s.ID()+"/step?cycles=1", "", http.StatusConflict, nil)
		do(t, client, "POST", ts.URL+"/sessions/"+s.ID()+"/checkpoint", "", http.StatusConflict, nil)
	}

	var st stepResponse
	do(t, client, "POST", ts.URL+"/sessions/calm/step?cycles=10000", "", http.StatusOK, &st)
	if st.Advanced != 10000 || calm.State() != StateIdle {
		t.Fatalf("the calm session stepped %d cycles, state %v", st.Advanced, calm.State())
	}
	if body := getBody(t, client, ts.URL+"/metrics"); !strings.Contains(body, `pipemem_delivered_total{session="calm"}`) {
		t.Fatalf("/metrics lost the calm session:\n%s", body)
	}
}

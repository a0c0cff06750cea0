package srv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// indentedJSON is what writeJSON puts on the wire for v.
func indentedJSON(t testing.TB, v any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// jsonHeader is the whole header set a JSON reply carries before net/http
// adds its own.
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// TestStepReplyBytesPinned pins POST /sessions/{id}/step on the wire — body
// bytes, status and headers — for a fresh permutation session, a named one,
// one under a buffer policy, one stepped past its end and one whose watchdog
// trips. The bodies were recorded from the encoding/json writer the route
// used before it wrote its reply by hand.
func TestStepReplyBytesPinned(t *testing.T) {
	m := NewManager(Options{})
	h := m.Handler()
	for _, cfg := range []SessionConfig{
		{Ports: 8, Buf: 64, Cycles: 1000, Traffic: "permutation", Load: 0.9, Seed: 42},
		{Name: "pinned", Ports: 4, Buf: 32, Cycles: 2000, Load: 0.85, Seed: 7},
		{Name: "dt", Ports: 4, Buf: 8, Cycles: 2000, Traffic: "hotspot", Load: 0.95, Hot: 0.9, Seed: 7, Policy: "dt:alpha=2"},
		{Name: "short", Ports: 2, Buf: 8, Cycles: 50, Seed: 3},
		{Name: "wedged", Ports: 4, Buf: 32, Cycles: 60, Load: 0.5, Seed: 3, Watchdog: 64},
	} {
		if _, err := m.Create(cfg); err != nil {
			t.Fatal(err)
		}
	}
	wedged, err := m.Get("wedged")
	if err != nil {
		t.Fatal(err)
	}
	for out := 0; out < 4; out++ {
		wedged.sim.Switch().SetOutputOpen(out, false)
	}

	for _, c := range []struct {
		url  string
		code int
		body string
	}{
		{"/sessions/s1/step?cycles=64", 200, `{
  "advanced": 64,
  "id": "s1",
  "state": "idle",
  "cycle": 64,
  "target_cycles": 1000,
  "offered": 32,
  "delivered": 17,
  "dropped": 0,
  "resident": 15,
  "buffered": 7,
  "ports": 8
}
`},
		{"/sessions/pinned/step?cycles=100", 200, `{
  "advanced": 100,
  "id": "pinned",
  "state": "idle",
  "cycle": 100,
  "target_cycles": 2000,
  "offered": 40,
  "delivered": 37,
  "dropped": 0,
  "resident": 3,
  "buffered": 1,
  "ports": 4
}
`},
		{"/sessions/dt/step?cycles=500", 200, `{
  "advanced": 500,
  "id": "dt",
  "state": "idle",
  "cycle": 500,
  "target_cycles": 2000,
  "offered": 237,
  "delivered": 84,
  "dropped": 145,
  "resident": 8,
  "buffered": 6,
  "ports": 4,
  "policy": "dt:alpha=2"
}
`},
		{"/sessions/short/step?cycles=10000", 200, `{
  "advanced": 61,
  "id": "short",
  "state": "done",
  "cycle": 61,
  "target_cycles": 50,
  "offered": 21,
  "delivered": 21,
  "dropped": 0,
  "resident": 0,
  "buffered": 0,
  "ports": 2
}
`},
		{"/sessions/short/step?cycles=1", 409, `{
  "error": "srv: session has finished: short is done"
}
`},
		{"/sessions/wedged/step?cycles=1024", 409, `{
  "error": "ckpt: no-progress watchdog tripped: no progress over 64 cycles (at cycle 128, 11 cells resident)"
}
`},
		{"/sessions/wedged/step?cycles=1", 409, `{
  "error": "srv: session has finished: wedged is failed"
}
`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", c.url, nil))
		if rec.Code != c.code || rec.Body.String() != c.body {
			t.Errorf("POST %s: %d\n%s\nwant %d\n%s", c.url, rec.Code, rec.Body, c.code, c.body)
		}
		if !reflect.DeepEqual(rec.Header(), jsonHeader) {
			t.Errorf("POST %s: header %v, want %v", c.url, rec.Header(), jsonHeader)
		}
	}
}

// TestStepReplyCoversEveryStatusField sets every field of a step reply —
// found by reflection, so a field added to Status later is found too — to
// values that test an encoder: strings JSON must escape (HTML characters,
// quotes, control bytes, non-ASCII, invalid UTF-8, U+2028) and ints far
// from zero on both sides. writeStep must write encoding/json's bytes.
func TestStepReplyCoversEveryStatusField(t *testing.T) {
	strs := []string{"s1", `<>&"\`, "ctl\x00\x01\n\t\x1f\x7f", "é ü \u2028\u2029 \xff\xfe", "dt:alpha=2"}
	ints := []int64{1, -1, 1 << 40, -(1 << 40) - 7, math.MaxInt64, math.MinInt64, 3<<50 + 5}
	for round := 0; round < len(strs)*len(ints); round++ {
		var resp stepResponse
		k := round
		var fill func(v reflect.Value)
		fill = func(v reflect.Value) {
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				switch f.Kind() {
				case reflect.Struct:
					fill(f)
				case reflect.String:
					f.SetString(strs[k%len(strs)])
				case reflect.Int, reflect.Int64:
					f.SetInt(ints[k%len(ints)])
				default:
					t.Fatalf("%s.%s is a %v: teach writeStep and this test that kind", v.Type(), v.Type().Field(i).Name, f.Kind())
				}
				k++
			}
		}
		fill(reflect.ValueOf(&resp).Elem())
		rec := httptest.NewRecorder()
		writeStep(rec, resp)
		if want := indentedJSON(t, resp); rec.Body.String() != want {
			t.Fatalf("round %d: writeStep wrote\n%s\nencoding/json writes\n%s", round, rec.Body, want)
		}
		if rec.Code != 200 || !reflect.DeepEqual(rec.Header(), jsonHeader) {
			t.Fatalf("round %d: status %d header %v", round, rec.Code, rec.Header())
		}
	}
}

// reusedWriter is an http.ResponseWriter that keeps its header map across
// requests, so what a handler allocates is the handler's own.
type reusedWriter struct {
	h      http.Header
	status int
}

func (w *reusedWriter) Header() http.Header { return w.h }

func (w *reusedWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *reusedWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

// stepRig is a manager serving one session of the ledger's steady 8×8 spec
// with a window no test or benchmark reaches, plus a reusable request for a
// 64-cycle step of it.
func stepRig(t testing.TB) (http.Handler, *http.Request) {
	t.Helper()
	m := NewManager(Options{})
	if _, err := m.Create(SessionConfig{Ports: 8, Buf: 256, Cycles: 1 << 40, Traffic: "permutation", Load: 1, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	return m.Handler(), httptest.NewRequest("POST", "/sessions/s1/step?cycles=64", nil)
}

// BenchmarkHTTPStep is one 64-cycle step request through the server's
// handler, without a network or a client: what the route itself costs, and
// allocates, on top of the simulation.
func BenchmarkHTTPStep(b *testing.B) {
	h, req := stepRig(b)
	w := &reusedWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("step answered %d", w.status)
		}
	}
}

// TestStepReplyCarriesItsOwnClock: concurrent step requests on one session
// each get the clock their own step left. Four clients post 500 64-cycle
// steps each; the 2000 replies must report 2000 distinct cycles, every one a
// multiple of 64, the last 2000·64. A reply whose readout is taken in a
// second lock hold can report a clock another request moved on.
func TestStepReplyCarriesItsOwnClock(t *testing.T) {
	const clients, steps, batch = 4, 500, 64
	m := NewManager(Options{})
	if _, err := m.Create(SessionConfig{Name: "shared", Ports: 4, Buf: 32, Cycles: 1 << 40, Load: 0.8, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	cycles := make([][]int64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				resp, err := ts.Client().Post(ts.URL+"/sessions/shared/step?cycles=64", "", nil)
				if err != nil {
					t.Error(err)
					return
				}
				var rep stepResponse
				err = json.NewDecoder(resp.Body).Decode(&rep)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || rep.Advanced != batch {
					t.Errorf("step %d of client %d: status %d advanced %d: %v", i, c, resp.StatusCode, rep.Advanced, err)
					return
				}
				cycles[c] = append(cycles[c], rep.Cycle)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := map[int64]bool{}
	var last int64
	for _, cs := range cycles {
		for _, cy := range cs {
			if seen[cy] || cy%batch != 0 {
				t.Errorf("cycle %d reported twice or off the %d-cycle grid", cy, batch)
			}
			seen[cy] = true
			last = max(last, cy)
		}
	}
	if len(seen) != clients*steps || last != clients*steps*batch {
		t.Fatalf("%d distinct cycles up to %d, want %d up to %d", len(seen), last, clients*steps, clients*steps*batch)
	}
}

// FuzzStepReply: whatever the strings and integers of a step reply,
// writeStep writes encoding/json's bytes.
func FuzzStepReply(f *testing.F) {
	f.Add("s1", "idle", "", "", int64(64), int64(64), int64(1000), int64(32), int64(17), int64(0), int64(15), int64(7), int64(8))
	f.Add("dt", "failed", "dt:alpha=2", `ckpt: "stalled" <at> & \ here`, int64(-1), int64(1<<40), int64(math.MaxInt64), int64(math.MinInt64), int64(1), int64(2), int64(-3), int64(4), int64(5))
	f.Add("é", "\x00 ", "\xff", "\x7f\t\n", int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, id, state, policy, errText string, adv, cycle, target, offered, delivered, dropped, resident, buffered, ports int64) {
		resp := stepResponse{Advanced: adv, Status: Status{
			ID: id, State: state, Cycle: cycle, TargetCycles: target,
			Offered: offered, Delivered: delivered, Dropped: dropped,
			Resident: int(resident), Buffered: int(buffered), Ports: int(ports),
			Policy: policy, Error: errText,
		}}
		rec := httptest.NewRecorder()
		writeStep(rec, resp)
		if want := indentedJSON(t, resp); rec.Body.String() != want {
			t.Fatalf("writeStep wrote\n%q\nencoding/json writes\n%q", rec.Body, want)
		}
	})
}

// cyclesByQuery is the ?cycles= parse through URL.Query alone: the
// reference cyclesParam's RawQuery shortcut must agree with.
func cyclesByQuery(r *http.Request) (int64, error) {
	q := r.URL.Query().Get("cycles")
	if q == "" {
		return 0, badSpecf("step needs ?cycles=N")
	}
	n, err := strconv.ParseInt(q, 10, 64)
	if err != nil {
		return 0, badSpecf("cycles %q is not an integer", q)
	}
	return n, nil
}

// FuzzCyclesParam: for any raw query, cyclesParam returns the step count
// and error text the URL.Query parse returns.
func FuzzCyclesParam(f *testing.F) {
	for _, seed := range []string{
		"cycles=64", "cycles=%36%34", "cycles=+64", "cycles=-64", "cycles=0064",
		"cycles=64&cycles=5", "x=1&cycles=7", "cycles=64;x=1", ";", "cycles=",
		"cycles", "", "cycles=9223372036854775807", "cycles=9223372036854775808",
		"cycles=1_000", "Cycles=5", "cycles=6 4", "cycles=6%", "cycles=64#",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		n, err := cyclesParam(r)
		wantN, wantErr := cyclesByQuery(r)
		if n != wantN || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: cyclesParam = %d, %v; URL.Query parse = %d, %v", raw, n, err, wantN, wantErr)
		}
	})
}

// TestOversizedBodyIs413: a request body one byte over maxBodyBytes is
// refused with 413 and leaves the session serving; one at the bound is
// decoded and applied.
func TestOversizedBodyIs413(t *testing.T) {
	m := NewManager(Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	c := ts.Client()
	do(t, c, "POST", ts.URL+"/sessions",
		`{"name":"tr","ports":2,"buf":8,"cycles":400,"traffic":"trace","schedule":[[1,0]]}`, 201, nil)
	rows := `{"slots":[[0,1]]}`
	padded := func(size int) string { return strings.Repeat(" ", size-len(rows)) + rows }
	do(t, c, "POST", ts.URL+"/sessions/tr/inject", padded(maxBodyBytes), 200, nil)
	var e struct{ Error string }
	do(t, c, "POST", ts.URL+"/sessions/tr/inject", padded(maxBodyBytes+1), 413, &e)
	if !strings.Contains(e.Error, "request body too large") {
		t.Fatalf("413 error %q", e.Error)
	}
	var st stepResponse
	do(t, c, "POST", ts.URL+"/sessions/tr/step?cycles=64", "", 200, &st)
	if st.Offered != 4 {
		t.Fatalf("after the refused inject: %+v, want the 2 initial and 2 injected cells offered", st)
	}
}

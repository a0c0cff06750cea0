package srv

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"pipemem/internal/ckpt"
)

// allocated returns the bytes f allocates (on any goroutine: callers keep
// the process quiet meanwhile).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// buildWithinBound builds the spec's session and holds the build to the
// price Spec charged for its geometry.
func buildWithinBound(t *testing.T, spec ckpt.Spec) {
	t.Helper()
	var err error
	got := allocated(func() { _, err = ckpt.New(spec, ckpt.Options{}) })
	bound := allocBound(spec.Switch.Ports, spec.Switch.Cells)
	if float64(got) > bound {
		t.Fatalf("ports=%d buf=%d: ckpt.New allocated %d bytes (err %v), priced at %.0f",
			spec.Switch.Ports, spec.Switch.Cells, got, err, bound)
	}
}

// TestSpecGeometryBudget: Spec prices a session's switch before anything is
// allocated and refuses what exceeds sessionAllocBudget. For each port count
// the largest buffer the price admits is accepted and one cell more is
// refused with ErrBadSpec; the price really is an upper bound on what
// ckpt.New allocates (checked where the build is small enough to repeat in
// a unit test); and the bodies that used to reach core.New are turned away
// without allocating.
func TestSpecGeometryBudget(t *testing.T) {
	for _, ports := range []int{2, 8, 64, 512, 1024} {
		buf := int((sessionAllocBudget - allocBound(ports, 0)) / (88 * float64(ports)))
		if buf < 1 || allocBound(ports, buf) > sessionAllocBudget || allocBound(ports, buf+1) <= sessionAllocBudget {
			t.Fatalf("ports=%d: buf=%d is not the edge of the budget", ports, buf)
		}
		if _, err := (SessionConfig{Ports: ports, Buf: buf, Cycles: 1}).Spec(); err != nil {
			t.Fatalf("ports=%d buf=%d (within budget): %v", ports, buf, err)
		}
		if _, err := (SessionConfig{Ports: ports, Buf: buf + 1, Cycles: 1}).Spec(); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("ports=%d buf=%d (over budget): %v, want ErrBadSpec", ports, buf+1, err)
		}
	}
	for _, g := range [][2]int{{2, 8}, {8, 64}, {8, 8192}, {2, 40000}, {64, 1024}, {512, 8}, {600, 1}} {
		for _, ecc := range []bool{false, true} {
			spec, err := SessionConfig{Ports: g[0], Buf: g[1], Cycles: 1, ECC: ecc}.Spec()
			if err != nil {
				t.Fatal(err)
			}
			buildWithinBound(t, spec)
		}
	}
	for _, body := range []string{
		`{"buf":2000000000,"cycles":1}`,
		`{"ports":1000000,"cycles":1}`,
		`{"ports":1700,"buf":1,"cycles":1}`,
		`{"ports":9223372036854775807,"buf":9223372036854775807,"cycles":1}`,
	} {
		var cfg SessionConfig
		if err := json.Unmarshal([]byte(body), &cfg); err != nil {
			t.Fatal(err)
		}
		var err error
		if got := allocated(func() { _, err = cfg.Spec() }); !errors.Is(err, ErrBadSpec) || got > 64<<10 {
			t.Fatalf("%s: %v after allocating %d bytes, want ErrBadSpec and next to nothing", body, err, got)
		}
	}
}

// TestHTTPOverBudgetSession: the same refusal over the wire — a 400 whose
// message names the geometry, with the server allocating no switch.
func TestHTTPOverBudgetSession(t *testing.T) {
	m := NewManager(Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	for _, body := range []string{`{"buf":2000000000,"cycles":1}`, `{"ports":1000000,"cycles":1}`} {
		var e struct{ Error string }
		if got := allocated(func() { do(t, ts.Client(), "POST", ts.URL+"/sessions", body, http.StatusBadRequest, &e) }); got > 1<<20 {
			t.Fatalf("%s: refused only after allocating %d bytes", body, got)
		}
		if !strings.Contains(e.Error, "ports=") || !strings.Contains(e.Error, "buf=") {
			t.Fatalf("%s: error %q does not name the geometry", body, e.Error)
		}
	}
	if n := len(m.List()); n != 0 {
		t.Fatalf("%d sessions registered by refused requests", n)
	}
}

// FuzzSessionConfig feeds arbitrary bytes to POST /sessions' decoder and
// Spec. Whatever the body, the outcome is one of two: a typed ErrBadSpec
// (HTTP 400), or a spec whose session ckpt.New builds — and builds within
// the price Spec charged, itself within sessionAllocBudget. Never a panic,
// never an allocation the body's size or numbers can inflate. (Specs priced
// above 8 MiB are accepted unbuilt: TestSpecGeometryBudget walks the edge.)
func FuzzSessionConfig(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`{"cycles":100}`,
		`{"name":"demo","ports":4,"buf":32,"cycles":100000,"load":0.85,"seed":7,"policy":"dt:alpha=2"}`,
		`{"name":"demo","ports":2,"buf":8,"cycles":400,"traffic":"trace","schedule":[[1,0]]}`,
		`{"ports":4,"buf":32,"cycles":5000,"ecc":true,"bypass":3,"fault_plan":"@500 stuck stage=2\n@90 mem stage=1","fault_seed":3}`,
		`{"traffic":"hotspot","hot":0.5,"hot_port":7,"cycles":10,"audit_every":64,"watchdog":1000}`,
		`{"traffic":"bursty","burst":8,"load":0.3,"cycles":10}`,
		`{"traffic":"permutation","ports":64,"buf":1024,"cycles":1}`,
		`{"buf":2000000000,"cycles":1}`,
		`{"ports":1000000,"cycles":1}`,
		`{"ports":-3,"buf":-1,"cycles":1}`,
		`{"name":"x","restore":"x.ckpt"}`,
		`{"cycles":1} trailing`,
		`[1,2,3]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var cfg SessionConfig
		req := httptest.NewRequest("POST", "/sessions", strings.NewReader(string(body)))
		if err := decodeBody(httptest.NewRecorder(), req, &cfg); err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("decode: untyped error %v", err)
			}
			return
		}
		spec, err := cfg.Spec()
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Spec: untyped error %v", err)
			}
			return
		}
		bound := allocBound(spec.Switch.Ports, spec.Switch.Cells)
		if bound > sessionAllocBudget {
			t.Fatalf("Spec accepted ports=%d buf=%d, priced at %.0f bytes", spec.Switch.Ports, spec.Switch.Cells, bound)
		}
		if bound > 8<<20 {
			return
		}
		got := allocated(func() {
			_, err = ckpt.New(spec, ckpt.Options{AuditEvery: cfg.AuditEvery, WatchdogWindow: cfg.Watchdog})
		})
		// A trace session's schedule is the client's own bytes, copied once.
		if err != nil || float64(got) > bound+float64(16*len(body)) {
			t.Fatalf("ports=%d buf=%d: ckpt.New: %v after %d bytes, priced at %.0f", spec.Switch.Ports, spec.Switch.Cells, err, got, bound)
		}
	})
}

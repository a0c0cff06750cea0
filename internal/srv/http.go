package srv

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"pipemem/internal/bufmgr"
	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/obs"
)

// HTTPStatus maps a serving-layer error to its status code. The two
// simulation sentinels get distinct codes: ErrBadConfig-shaped errors
// (bad spec, bad policy, bad flag value) are the client's fault — 400 —
// while ckpt.ErrStalled is a wedged simulation the client must resolve
// (restore, fork, delete) — 409, like the other wrong-lifecycle-state
// conflicts. A request body over the server's bound is a 413 whatever else
// it wraps.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrTooManySessions):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBusy), errors.Is(err, ErrFinished), errors.Is(err, ckpt.ErrStalled):
		return http.StatusConflict
	case errors.Is(err, ErrBadSpec), errors.Is(err, ErrNoCheckpointDir),
		errors.Is(err, core.ErrBadConfig), errors.Is(err, bufmgr.ErrBadConfig):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr emits the mapped status with {"error": "..."}.
func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, HTTPStatus(err), map[string]string{"error": err.Error()})
}

// stepResponse is the body of POST /sessions/{id}/step: cycles actually
// advanced plus the post-step status readout.
type stepResponse struct {
	Advanced int64 `json:"advanced"`
	Status
}

// writeStep writes the 200 reply of POST /sessions/{id}/step: the bytes
// writeJSON writes for resp, appended by hand into a pooled buffer, because
// this is the route a client calls once per batch of cycles.
func writeStep(w http.ResponseWriter, resp stepResponse) {
	bp := replyBufs.Get().(*[]byte)
	b := appendStep((*bp)[:0], &resp)
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(b)
	if cap(b) <= 4<<10 { // a rare escaped string may have grown it
		*bp = b
		replyBufs.Put(bp)
	}
}

// jsonContentType is shared by every step reply's header; net/http only
// reads it.
var jsonContentType = []string{"application/json"}

var replyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// appendStep appends r as json.Encoder with SetIndent("", "  ") writes it:
// fields in declaration order, the embedded Status inlined, policy and
// error omitted when empty, a newline after the closing brace.
func appendStep(b []byte, r *stepResponse) []byte {
	b = appendInt(b, "{\n  \"advanced\": ", r.Advanced)
	b = appendString(b, ",\n  \"id\": ", r.ID)
	b = appendString(b, ",\n  \"state\": ", r.State)
	b = appendInt(b, ",\n  \"cycle\": ", r.Cycle)
	b = appendInt(b, ",\n  \"target_cycles\": ", r.TargetCycles)
	b = appendInt(b, ",\n  \"offered\": ", r.Offered)
	b = appendInt(b, ",\n  \"delivered\": ", r.Delivered)
	b = appendInt(b, ",\n  \"dropped\": ", r.Dropped)
	b = appendInt(b, ",\n  \"resident\": ", int64(r.Resident))
	b = appendInt(b, ",\n  \"buffered\": ", int64(r.Buffered))
	b = appendInt(b, ",\n  \"ports\": ", int64(r.Ports))
	if r.Policy != "" {
		b = appendString(b, ",\n  \"policy\": ", r.Policy)
	}
	if r.Error != "" {
		b = appendString(b, ",\n  \"error\": ", r.Error)
	}
	return append(b, "\n}\n"...)
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendString appends key and s as a JSON string. Printable ASCII other
// than the characters encoding/json escapes (", \, <, >, &) is written as
// is; any other string is left to json.Marshal, so escaping stays its own.
func appendString(b []byte, key, s string) []byte {
	b = append(b, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// resultResponse is the body of GET /sessions/{id}/result: the RunResult
// snapshot (final for done/failed sessions, live partial otherwise).
type resultResponse struct {
	ID      string         `json:"id"`
	State   string         `json:"state"`
	Partial bool           `json:"partial"`
	Result  core.RunResult `json:"result"`
	Error   string         `json:"error,omitempty"`
}

// Handler builds the server's HTTP surface on one shared mux: the
// session API under /sessions, and the debug surface promoted from
// obs.ServeDebug — /debug/pprof/ mounted exactly once (obs.NewDebugMux),
// /metrics serving the server registry plus every session registry in a
// single exposition with session="<id>" labels, and per-session scrapes
// at /sessions/{id}/metrics.
func (m *Manager) Handler() http.Handler {
	mux := obs.NewDebugMux()

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		_ = obs.WritePrometheusSet(w, "session", m.namedRegistries())
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		snaps := map[string]obs.Snapshot{"server": m.reg.Snapshot()}
		for _, s := range m.List() {
			snaps[s.id] = s.reg.Snapshot()
		}
		writeJSON(w, http.StatusOK, snaps)
	})

	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, _ *http.Request) {
		list := []Status{} // render [] rather than null when empty
		for _, s := range m.List() {
			list = append(list, s.Status())
		}
		writeJSON(w, http.StatusOK, list)
	})

	mux.HandleFunc("POST /sessions", func(w http.ResponseWriter, r *http.Request) {
		var cfg SessionConfig
		if err := decodeBody(w, r, &cfg); err != nil {
			writeErr(w, err)
			return
		}
		s, err := m.Create(cfg)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, s.Status())
	})

	mux.HandleFunc("GET /sessions/{id}", m.withSession(func(w http.ResponseWriter, _ *http.Request, s *Session) {
		writeJSON(w, http.StatusOK, s.Status())
	}))

	mux.HandleFunc("DELETE /sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Delete(r.PathValue("id")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
	})

	mux.HandleFunc("POST /sessions/{id}/step", m.withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		n, err := cyclesParam(r)
		if err != nil {
			writeErr(w, err)
			return
		}
		var resp stepResponse
		if resp.Advanced, err = s.step(n, &resp.Status); err != nil {
			writeErr(w, err)
			return
		}
		writeStep(w, resp)
	}))

	mux.HandleFunc("POST /sessions/{id}/run", m.withSession(func(w http.ResponseWriter, _ *http.Request, s *Session) {
		if err := s.Start(); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.Status())
	}))

	mux.HandleFunc("POST /sessions/{id}/pause", m.withSession(func(w http.ResponseWriter, _ *http.Request, s *Session) {
		s.Pause()
		writeJSON(w, http.StatusOK, s.Status())
	}))

	mux.HandleFunc("GET /sessions/{id}/result", m.withSession(func(w http.ResponseWriter, _ *http.Request, s *Session) {
		res, partial, err := s.Result()
		resp := resultResponse{ID: s.id, State: s.State().String(), Partial: partial, Result: res}
		if err != nil {
			resp.Error = err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	}))

	mux.HandleFunc("GET /sessions/{id}/series", m.withSession(func(w http.ResponseWriter, _ *http.Request, s *Session) {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = s.Series().WriteJSONL(w)
	}))

	mux.HandleFunc("GET /sessions/{id}/metrics", m.withSession(func(w http.ResponseWriter, _ *http.Request, s *Session) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		_ = s.reg.WritePrometheus(w)
	}))

	mux.HandleFunc("POST /sessions/{id}/checkpoint", m.withSession(func(w http.ResponseWriter, _ *http.Request, s *Session) {
		name, err := m.Checkpoint(s.id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": s.id, "checkpoint": name})
	}))

	mux.HandleFunc("POST /sessions/{id}/fork", m.withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		var body struct {
			Name string `json:"name"`
		}
		if err := decodeBody(w, r, &body); err != nil {
			writeErr(w, err)
			return
		}
		fk, err := m.Fork(s.id, body.Name)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, fk.Status())
	}))

	mux.HandleFunc("POST /sessions/{id}/inject", m.withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		var body struct {
			Slots [][]int `json:"slots"`
		}
		if err := decodeBody(w, r, &body); err != nil {
			writeErr(w, err)
			return
		}
		if err := s.Extend(body.Slots); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": s.id, "slots": len(body.Slots)})
	}))

	return mux
}

// withSession resolves {id} before the handler runs.
func (m *Manager) withSession(h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		h(w, r, s)
	}
}

// namedRegistries is the /metrics exposition set: the server registry
// first, then every session's, labeled by id.
func (m *Manager) namedRegistries() []obs.NamedRegistry {
	regs := []obs.NamedRegistry{{Name: "server", Reg: m.reg}}
	for _, s := range m.List() {
		regs = append(regs, obs.NamedRegistry{Name: s.id, Reg: s.reg})
	}
	return regs
}

// maxBodyBytes bounds every request body's bytes. It bounds what they decode
// to only loosely: a JSON int decodes to 8 bytes from at least 2, but a
// schedule row costs a 24-byte slice header from as few as 3 ("[],"), and a
// body of 16 MiB of such rows allocates some 0.9 GiB while it decodes.
const maxBodyBytes = sessionAllocBudget / 4

// decodeBody parses an optional JSON request body (empty body = zero
// value), rejecting a key v does not have, trailing garbage and unparseable
// JSON as 400s and a body over maxBodyBytes as a 413.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if r.Body == nil {
		return nil
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if err.Error() == "EOF" { // empty body: all defaults
			return nil
		}
		return fmt.Errorf("%w: request body: %w", ErrBadSpec, err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil {
		return badSpecf("request body has trailing data")
	} else if errors.As(err, new(*http.MaxBytesError)) {
		return fmt.Errorf("%w: request body: %w", ErrBadSpec, err)
	}
	return nil
}

// cyclesParam parses the ?cycles=N step size. The plain "cycles=<digits>"
// query is read straight from RawQuery, where URL.Query would build a map
// to find the same string; any other query goes through URL.Query.
func cyclesParam(r *http.Request) (int64, error) {
	q, ok := strings.CutPrefix(r.URL.RawQuery, "cycles=")
	if !ok || q == "" || strings.TrimLeft(q, "0123456789") != "" {
		q = r.URL.Query().Get("cycles")
	}
	if q == "" {
		return 0, badSpecf("step needs ?cycles=N")
	}
	n, err := strconv.ParseInt(q, 10, 64)
	if err != nil {
		return 0, badSpecf("cycles %q is not an integer", q)
	}
	return n, nil
}

//go:build !race

// The race detector's sync.Pool drops a random quarter of Puts, so the
// step route's reply buffer is reallocated there; the bound holds in an
// ordinary build only.

package srv

import (
	"net/http"
	"testing"
)

// TestStepRouteAllocs: a 64-cycle step through the handler allocates once,
// and that once is http.ServeMux matching {id}; the route's own code — the
// session lookup, the ?cycles= parse, the step, the readout and the reply —
// allocates nothing.
func TestStepRouteAllocs(t *testing.T) {
	h, req := stepRig(t)
	w := &reusedWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		w.status = 0
		h.ServeHTTP(w, req)
	})
	if allocs > 1 || w.status != http.StatusOK {
		t.Fatalf("step route: %v allocations per request (status %d), want at most the mux's 1", allocs, w.status)
	}
}

// Command pmserve is the simulation-as-a-service daemon: it serves the
// internal/srv session API over HTTP/JSON. Clients create named
// simulation sessions from the same spec grammar as batch pmsim
// (topology, traffic, buffer policy, fault plan), advance them in
// bounded step batches or background free-run, stream trace cells in,
// scrape live results, metrics and occupancy telemetry, and
// checkpoint/fork/restore them.
//
// Usage:
//
//	pmserve -listen localhost:8377 -max-sessions 16 -ckpt-dir /tmp/pm
//
// API (all request/response bodies JSON; a request body key the route
// does not take is a 400, never ignored):
//
//	GET    /sessions                     list sessions
//	POST   /sessions                     create ({"cycles":100000,...} or {"restore":"s1.ckpt"})
//	GET    /sessions/{id}                status readout
//	DELETE /sessions/{id}                pause and remove
//	POST   /sessions/{id}/step?cycles=N  advance synchronously
//	POST   /sessions/{id}/run            start background free-run
//	POST   /sessions/{id}/pause          pause free-run at a batch boundary
//	GET    /sessions/{id}/result         RunResult snapshot (live or final)
//	GET    /sessions/{id}/series         occupancy telemetry (JSONL)
//	GET    /sessions/{id}/metrics        per-session Prometheus scrape
//	POST   /sessions/{id}/checkpoint     write <id>.ckpt to -ckpt-dir
//	POST   /sessions/{id}/fork           clone at the current cycle ({"name":"..."} optional)
//	POST   /sessions/{id}/inject         append trace rows ({"slots":[[...],...]})
//	GET    /metrics                      server + all sessions, session="<id>" labels
//	GET    /metrics.json                 JSON snapshots keyed by session id
//	GET    /debug/pprof/                 profiles
//
// On SIGTERM/SIGINT pmserve drains: it pauses every free-running
// session at a step boundary and checkpoints every live unfinished
// session into -ckpt-dir, so a restarted server restores the fleet via
// POST /sessions {"restore": "<id>.ckpt"}.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pipemem/internal/obs"
	"pipemem/internal/srv"
)

// newFlagSet builds pmserve's flag set with usage on errw.
func newFlagSet(errw *os.File) *flag.FlagSet {
	fs := flag.NewFlagSet("pmserve", flag.ContinueOnError)
	fs.SetOutput(errw)
	return fs
}

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pmserve:", err)
		os.Exit(2)
	}
}

func run(args []string, errw *os.File) error {
	fs := newFlagSet(errw)
	listen := fs.String("listen", "localhost:8377", "address to serve on (host:port)")
	maxSessions := fs.Int("max-sessions", 16, "maximum concurrently live sessions")
	stepMax := fs.Int64("step-max", 1<<20, "maximum cycles per step request")
	ckptDir := fs.String("ckpt-dir", "", "directory for checkpoint/restore and shutdown drain (empty = checkpointing off)")
	telemetryEvery := fs.Int64("telemetry-every", 256, "occupancy-sampling cadence in cycles")
	telemetryCap := fs.Int("telemetry-cap", 4096, "per-session telemetry ring capacity in samples")
	freeRunBatch := fs.Int64("freerun-batch", 8192, "cycles a free-running session advances per lock hold")
	reqTimeout := fs.Duration("req-timeout", 30*time.Second, "per-request handler timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxSessions <= 0 {
		return fmt.Errorf("-max-sessions must be positive (got %d)", *maxSessions)
	}
	if *stepMax <= 0 {
		return fmt.Errorf("-step-max must be positive (got %d)", *stepMax)
	}
	if *telemetryEvery <= 0 || *telemetryCap <= 0 || *freeRunBatch <= 0 {
		return fmt.Errorf("-telemetry-every, -telemetry-cap and -freerun-batch must be positive")
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %v", err)
		}
	}

	m := srv.NewManager(srv.Options{
		MaxSessions:    *maxSessions,
		StepMax:        *stepMax,
		CkptDir:        *ckptDir,
		TelemetryEvery: *telemetryEvery,
		TelemetryCap:   *telemetryCap,
		FreeRunBatch:   *freeRunBatch,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %v", *listen, err)
	}

	// Runtime gauges ride on the server registry, so /metrics carries
	// heap/GC/goroutine health next to the session-fleet counters.
	rg := obs.NewRuntimeGauges(m.Registry())
	stopGauges := rg.Start(time.Second)
	defer stopGauges()

	var handler http.Handler = m.Handler()
	if *reqTimeout > 0 {
		// Bound every request. Step requests are already capped by
		// -step-max; this also covers slow clients on the scrape paths.
		handler = http.TimeoutHandler(handler, *reqTimeout, `{"error":"request timed out"}`)
	}
	server := &http.Server{Handler: handler}

	fmt.Fprintf(errw, "pmserve: listening on http://%s\n", ln.Addr())
	errCh := make(chan error, 1)
	go func() { errCh <- server.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(errw, "pmserve: %v: draining\n", sig)
	case err := <-errCh:
		return fmt.Errorf("serve: %v", err)
	}

	// Stop accepting requests, then freeze the fleet: every free-running
	// session pauses at a step boundary and every live unfinished session
	// gets a checkpoint in -ckpt-dir.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = server.Shutdown(ctx)
	files, derr := m.Drain()
	if len(files) > 0 {
		fmt.Fprintf(errw, "pmserve: drained %d session(s): %s\n", len(files), strings.Join(files, ", "))
	}
	if derr != nil {
		return fmt.Errorf("drain: %v", derr)
	}
	fmt.Fprintln(errw, "pmserve: stopped")
	return nil
}

package core

import "testing"

// Hooks for the external tests (package core_test), which may import
// packages that import core.

// TraceCycles is the driven length of every traced golden run.
const TraceCycles = traceCycles

// TraceGridNames names traceGrid's configurations, in order.
func TraceGridNames() []string {
	var names []string
	for _, tc := range traceGrid() {
		names = append(names, tc.name)
	}
	return names
}

// TracedDigests is tracedDigests over traceGrid's configuration i.
func TracedDigests(t *testing.T, i int, tap func(*Switch) func(TraceEvent)) (text, jsonl uint64, events, deps int) {
	return tracedDigests(t, traceGrid()[i], tap)
}

package wormhole

import (
	"fmt"
	"testing"
)

// TestResultsPinned holds both nets, open-loop and saturated, to the exact
// results they have always produced: the message source, the ejection
// checker and the warm-up/measure driver may be restructured, but not one
// flit, cycle or latency sample may move.
func TestResultsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (Result, error)
		want string
	}{
		{"net/load0.3", func() (Result, error) {
			return Run(mustNet(t, Config{Terminals: 8, BufferFlits: 8, MsgFlits: 10, Load: 0.3, Seed: 13}), 5_000, 20_000)
		}, "{Cycles:20000 Throughput:0.30705625 MeanMsgLatency:19.607493455497384 DeliveredFlits:49129}"},
		{"net/saturate", func() (Result, error) {
			return Run(mustNet(t, Config{Terminals: 16, BufferFlits: 16, MsgFlits: 20, Saturate: true, Seed: 9}), 5_000, 20_000)
		}, "{Cycles:20000 Throughput:0.5019125 MeanMsgLatency:96.33349980023971 DeliveredFlits:160612}"},
		{"lanes2/load0.3", func() (Result, error) {
			return Run(mustLanes(t, LaneConfig{Terminals: 16, BufferFlits: 16, MsgFlits: 10, Lanes: 2, Load: 0.3, Seed: 13}), 5_000, 20_000)
		}, "{Cycles:20000 Throughput:0.301271875 MeanMsgLatency:24.24710681874948 DeliveredFlits:96407}"},
		{"lanes1/saturate", func() (Result, error) {
			return Run(mustLanes(t, LaneConfig{Terminals: 16, BufferFlits: 16, MsgFlits: 20, Lanes: 1, Saturate: true, Seed: 7}), 5_000, 20_000)
		}, "{Cycles:20000 Throughput:0.42095625 MeanMsgLatency:80.0837882743888 DeliveredFlits:134706}"},
		{"lanes4/saturate", func() (Result, error) {
			return Run(mustLanes(t, LaneConfig{Terminals: 16, BufferFlits: 16, MsgFlits: 20, Lanes: 4, Saturate: true, Seed: 7}), 5_000, 20_000)
		}, "{Cycles:20000 Throughput:0.554334375 MeanMsgLatency:74.10310581437342 DeliveredFlits:177387}"},
	} {
		r, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%+v", r); got != tc.want {
			t.Errorf("%s: got %s\n want %s", tc.name, got, tc.want)
		}
	}
}

package core_test

import (
	"hash/fnv"
	"testing"

	"pipemem/internal/core"
	"pipemem/internal/trace"
)

// TestTracedRunGoldenDigest pins the fig. 5 tap on busy runs: every
// TraceEvent of a few thousand cycles — control word at every stage, input
// latches, output drives — as text, as JSONL and as the VCD bytes
// internal/trace renders from the same events (which is why this test is
// external: internal/trace imports core). The two hand-written goldens
// (TestGoldenFig5Trace, TestGoldenStoreAndForwardTrace) cover a dozen
// cycles of a 2×2; these cover back-to-back waves on every stage, VC
// arbitration, policy drops and evictions, pipelined links and long dead
// stretches, on every configuration of traceGrid — the VC ones, which the
// reference does not model, included. The events must not move.
func TestTracedRunGoldenDigest(t *testing.T) {
	type pin struct {
		text, jsonl, vcd uint64
		events, deps     int
	}
	golden := map[string]pin{
		"4x4/ct/bern0.6":                    {0x998113820f2dcd58, 0x79f36221f73592a7, 0x6d7bb6b27f8c5f1b, 3012, 746},
		"4x4/ct/sparse":                     {0xba83439d8bb1a7f1, 0x691a274e2a56a3d, 0x627a80d23877cfc4, 3012, 65},
		"8x8/sf/sat":                        {0xfb10f37ae2d523db, 0xda60250b60e56c1f, 0xb690f8ee6a6a8dba, 4548, 1119},
		"8x8/ct/perm":                       {0x45153e95c8bb3977, 0x3431a3fe8d83f837, 0x2eed7464659a40a8, 4548, 1256},
		"4x4/ct/vcs2-wrr":                   {0x56f3ddc6a618464, 0x45ab99d2e5c05617, 0x7304df858cc5c5b4, 3012, 1121},
		"4x4/sf/dt":                         {0x5e6f7cb43003715b, 0x42a7a3d7dbb5e1a7, 0x50e9c0da00fdb0ed, 3012, 677},
		"4x4/ct/pushout":                    {0xb636621f684a2d2b, 0x7835cb637c209e45, 0x592b749e55b396cc, 2756, 1140},
		"8x8/ct/linkpipe2":                  {0x2d0e45c0e0ab0204, 0xa4cbb106f90c78b, 0x57ba0fe0d5520224, 4548, 996},
		"4x4/sf/linkpipe2-sparse":           {0xc364bcb78f5c17c8, 0xa15af1399e84707b, 0x3e1010372e180869, 3012, 63},
		"grid/ct=true/plain/load=0.05":      {0xed9b4d2b6493311d, 0x4612728d9e6657a9, 0x5e464e683bf3dec, 3012, 63},
		"grid/ct=true/plain/load=0.50":      {0x408cea6d21f16639, 0xc55ec9ff63ed7e8f, 0x7aa90043399d5d70, 3012, 592},
		"grid/ct=true/plain/load=0.95":      {0x10217833d965ccc4, 0xd5ed9d106c22f06d, 0xf067b9527d60afca, 3012, 595},
		"grid/ct=true/vcs2/load=0.05":       {0xed9b4d2b6493311d, 0x4612728d9e6657a9, 0x5e464e683bf3dec, 3012, 63},
		"grid/ct=true/vcs2/load=0.50":       {0x43e4e25d45d634c5, 0xb7a2bc7d960a291f, 0xf9f3e19f89aac058, 3012, 592},
		"grid/ct=true/vcs2/load=0.95":       {0x9074bffa84a55102, 0xff5ebf46f238acb3, 0x57e0899e773af884, 3012, 595},
		"grid/ct=true/linkpipe2/load=0.05":  {0x77161c20d7bfddc3, 0x2d1ac75c3299ef2d, 0x5683cdcace0ce565, 3012, 63},
		"grid/ct=true/linkpipe2/load=0.50":  {0x3a3808fed58b3aed, 0x7f013e89abb65bf7, 0xfbaf481937963994, 3012, 592},
		"grid/ct=true/linkpipe2/load=0.95":  {0xd3c86c46ebdd90d6, 0xb9f6d6d397f89893, 0xaea57049cad7dd68, 3012, 595},
		"grid/ct=true/ecc/load=0.05":        {0xed9b4d2b6493311d, 0x4612728d9e6657a9, 0x5e464e683bf3dec, 3012, 63},
		"grid/ct=true/ecc/load=0.50":        {0x408cea6d21f16639, 0xc55ec9ff63ed7e8f, 0x7aa90043399d5d70, 3012, 592},
		"grid/ct=true/ecc/load=0.95":        {0x10217833d965ccc4, 0xd5ed9d106c22f06d, 0xf067b9527d60afca, 3012, 595},
		"grid/ct=true/dt/load=0.05":         {0xed9b4d2b6493311d, 0x4612728d9e6657a9, 0x5e464e683bf3dec, 3012, 63},
		"grid/ct=true/dt/load=0.50":         {0xeffff018bce7bad4, 0xa4a902d2f1806a7f, 0x1a66fc9b3546349c, 3012, 588},
		"grid/ct=true/dt/load=0.95":         {0xe703b94ae01c522, 0x759f87f6d5a4d8a7, 0xc912d6e851984d30, 3012, 865},
		"grid/ct=true/pushout/load=0.05":    {0xed9b4d2b6493311d, 0x4612728d9e6657a9, 0x5e464e683bf3dec, 3012, 63},
		"grid/ct=true/pushout/load=0.50":    {0x1a13e6545425c39f, 0x49f2a1bcba1d4c0d, 0x99bf0e57fe295c20, 3012, 596},
		"grid/ct=true/pushout/load=0.95":    {0x25ab36deb4531054, 0xd4fbedbbb332f06d, 0x956764610596b410, 3012, 872},
		"grid/ct=false/plain/load=0.05":     {0x14ed01b131728fe7, 0x7debacd39e65e42d, 0x39c291825e7c6c76, 3012, 63},
		"grid/ct=false/plain/load=0.50":     {0x4562dc5869641a59, 0x6d69cdabbe60c60f, 0x18e7d843a49560da, 3012, 590},
		"grid/ct=false/plain/load=0.95":     {0x7c6f4f15056d53a9, 0xad9cd03fa5858b95, 0x8977381008541e00, 3012, 582},
		"grid/ct=false/vcs2/load=0.05":      {0x14ed01b131728fe7, 0x7debacd39e65e42d, 0x39c291825e7c6c76, 3012, 63},
		"grid/ct=false/vcs2/load=0.50":      {0x724876347d6f0ccb, 0x7e726577da7ad60d, 0x66f392ecbbb93eee, 3012, 590},
		"grid/ct=false/vcs2/load=0.95":      {0xec2a43258f412477, 0x4de5dc677d973af1, 0x6c42350a1436c47a, 3012, 582},
		"grid/ct=false/linkpipe2/load=0.05": {0x664581e153e56341, 0x4ec300d490ebe485, 0xf0402d611422089f, 3012, 63},
		"grid/ct=false/linkpipe2/load=0.50": {0xa13a64590f06d969, 0xb693206a1f8b8e0f, 0x7d3ca7917fa7a8f8, 3012, 590},
		"grid/ct=false/linkpipe2/load=0.95": {0x8653a78c70aa29a9, 0xdcf54477563d2bd1, 0xe53408f6530ae71a, 3012, 582},
		"grid/ct=false/ecc/load=0.05":       {0x14ed01b131728fe7, 0x7debacd39e65e42d, 0x39c291825e7c6c76, 3012, 63},
		"grid/ct=false/ecc/load=0.50":       {0x4562dc5869641a59, 0x6d69cdabbe60c60f, 0x18e7d843a49560da, 3012, 590},
		"grid/ct=false/ecc/load=0.95":       {0x7c6f4f15056d53a9, 0xad9cd03fa5858b95, 0x8977381008541e00, 3012, 582},
		"grid/ct=false/dt/load=0.05":        {0x14ed01b131728fe7, 0x7debacd39e65e42d, 0x39c291825e7c6c76, 3012, 63},
		"grid/ct=false/dt/load=0.50":        {0x7ccfdb3989866955, 0x531e97485f175103, 0x8226f7a94f9fe2fe, 3012, 584},
		"grid/ct=false/dt/load=0.95":        {0xb618bf49d551f169, 0xf38144601acb388f, 0x8e51066df646d97c, 3012, 864},
		"grid/ct=false/pushout/load=0.05":   {0x14ed01b131728fe7, 0x7debacd39e65e42d, 0x39c291825e7c6c76, 3012, 63},
		"grid/ct=false/pushout/load=0.50":   {0xca6d580c10f09ddd, 0x6b6d983c146bbeeb, 0xaec77d6537cf2fa0, 3012, 593},
		"grid/ct=false/pushout/load=0.95":   {0xf4c0d171978fc20d, 0x704af23a6ac3dc25, 0xf0a235d5ff0c734e, 3012, 868},
	}
	for i, name := range core.TraceGridNames() {
		t.Run(name, func(t *testing.T) {
			hv := fnv.New64a()
			var vw *trace.VCDWriter
			text, jsonl, events, deps := core.TracedDigests(t, i, func(s *core.Switch) func(core.TraceEvent) {
				vw = trace.NewVCDWriter(hv, s, 16)
				return vw.Trace
			})
			if err := vw.Err(); err != nil {
				t.Fatal(err)
			}
			got := pin{text, jsonl, hv.Sum64(), events, deps}
			if want, ok := golden[name]; !ok || got != want {
				t.Fatalf("traced run moved:\n got  {%#x, %#x, %#x, %d, %d}\n want {%#x, %#x, %#x, %d, %d}",
					got.text, got.jsonl, got.vcd, got.events, got.deps,
					want.text, want.jsonl, want.vcd, want.events, want.deps)
			}
			if deps == 0 || events < core.TraceCycles {
				t.Fatalf("vacuous run: %d events, %d departures", events, deps)
			}
		})
	}
}

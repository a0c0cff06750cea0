package traffic

// haveWide reports whether firstBelow8 can run here: AVX-512F and
// AVX-512DQ (the 64-bit VPMULLQ), with the OS saving opmask and ZMM state.
var haveWide = func() bool {
	max, _, _, _ := cpuid(0, 0)
	if max < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 {
		return false
	}
	// XCR0: SSE, AVX, opmask, ZMM0-15 upper halves, ZMM16-31.
	const zmmState = 0xE6
	if xgetbv()&zmmState != zmmState {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	_, b, _, _ := cpuid(7, 0)
	return b&avx512f != 0 && b&avx512dq != 0
}()

// firstBelow8 is firstBelow over n draws, n a positive multiple of eight,
// in eight lanes: lane k holds the state of draw i+k, and each lane jumps
// eight steps (w's lane 7) per block. It returns the first hit with the
// generator just past it, or n with all n draws consumed.
//
//go:noescape
func firstBelow8(p *pcg, thr uint64, n int, w *wideLanes) int

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low word of XCR0.
func xgetbv() uint32

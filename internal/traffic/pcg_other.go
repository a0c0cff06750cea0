//go:build !amd64

package traffic

// haveWide is false off amd64: firstBelow runs the two-lane Go loop.
const haveWide = false

func firstBelow8(p *pcg, thr uint64, n int, w *wideLanes) int {
	panic("traffic: firstBelow8 without the amd64 kernel")
}

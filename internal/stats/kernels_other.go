//go:build !amd64

package stats

// Without the amd64 assembly the Go loops always run.

func cpuHasAVX2() bool { return false }

func sqDistColsAVX2(x *float64, n int, packed *float64, out *float64, panels int) {
	panic("stats: AVX2 kernel called on a build without it")
}

func subRows4AVX2(di, d *float64, m int, l *float64, tiny *uint64, cols int) {
	panic("stats: AVX2 kernel called on a build without it")
}

func dotColsAVX2(row *float64, n int, packed *float64, bias float64, out *float64, panels int) {
	panic("stats: AVX2 kernel called on a build without it")
}

func addScaledAVX2(dst *float64, n int, coefs *float64, vecs *[]float64, k int) {
	panic("stats: AVX2 kernel called on a build without it")
}

func adamAVX2(w, grad, m, v *float64, n int, c *AdamCoefs) {
	panic("stats: AVX2 kernel called on a build without it")
}

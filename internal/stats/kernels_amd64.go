package stats

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the AVX2 kernels may run: CPUID leaf 7
// reports AVX2, leaf 1 reports AVX and OSXSAVE, and XCR0 shows the
// operating system saving both the XMM and the YMM register state.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// sqDistColsAVX2 is SquaredDistanceCols for the first panels full panels
// of packed (n ≥ 1, panels ≥ 1), writing 4·panels distances to out.
//
//go:noescape
func sqDistColsAVX2(x *float64, n int, packed *float64, out *float64, panels int)

// subRows4AVX2 is subRows4 for columns [0, cols) (cols a positive
// multiple of 4); the rows of d are m apart, l holds four multipliers and
// tiny their tinyBound bits.
//
//go:noescape
func subRows4AVX2(di, d *float64, m int, l *float64, tiny *uint64, cols int)

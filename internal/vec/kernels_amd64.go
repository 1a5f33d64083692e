package vec

import "fmt"

// The AVX2 micro-kernel set (kernels_amd64.s). The assembly computes the
// four lane sums of each dot product over the rows up to the last multiple of
// four, with one YMM register per pair; the Go glue below adds the row tail
// into lane 0 and combines the lanes exactly as dotGo does.

var avx2Kernels = &kernelSet{name: "avx2", dot: dotAVX2, gramTile: gramTileAVX2, combine: combineAVX2}

func init() {
	if cpuHasAVX2() {
		active = avx2Kernels
	}
}

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM registers: CPUID.1 ECX has OSXSAVE and AVX, XCR0 enables the SSE and
// AVX state, and CPUID.7 EBX has AVX2.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func dotLanesAVX2(x, y *float64, n int, lanes *[4]float64)

//go:noescape
func gram3x4AVX2(x *[3]*float64, y *[4]*float64, n int, lanes *[48]float64)

//go:noescape
func gram1x4AVX2(x *float64, y *[4]*float64, n int, lanes *[16]float64)

//go:noescape
func combineKAVX2(d, src *float64, x *[4]*float64, c *[4]float64, n, k int)

// finishDot completes a dot product from its lane sums l: the tail rows a, b
// go into lane 0, then the lanes combine as (s0+s1)+(s2+s3).
func finishDot(l []float64, a, b []float64) float64 {
	b = b[:len(a)]
	s0 := l[0]
	for i := range a {
		s0 += float64(a[i] * b[i])
	}
	return (s0 + l[1]) + (l[2] + l[3])
}

func dotAVX2(a, b []float64) float64 {
	b = b[:len(a)]
	n4 := len(a) &^ 3
	var l [4]float64
	if n4 > 0 {
		dotLanesAVX2(&a[0], &b[0], n4, &l)
	}
	return finishDot(l[:], a[n4:], b[n4:])
}

// gramTileAVX2 covers the len(xc)×len(yc) pairs with 3×4 column blocks, and
// the last one or two rows of X with 1×4 blocks. A block past the last
// column of Y repeats that column; the repeated pairs' lanes are dropped.
func gramTileAVX2(acc []float64, xc, yc [][]float64, lo, hi int) {
	n4 := (hi - lo) &^ 3
	if n4 == 0 {
		gramTileGo(acc, xc, yc, lo, hi)
		return
	}
	sa, sb := len(xc), len(yc)
	var lanes [48]float64
	var xp [3]*float64
	var yp [4]*float64
	for i0 := 0; i0 < sa; {
		mr := 3
		if sa-i0 < 3 {
			mr = 1
		}
		for i := 0; i < mr; i++ {
			xp[i] = &xc[i0+i][lo:hi][0]
		}
		for j0 := 0; j0 < sb; j0 += 4 {
			nr := min(4, sb-j0)
			for j := range yp {
				yp[j] = &yc[j0+min(j, nr-1)][lo:hi][0]
			}
			if mr == 3 {
				gram3x4AVX2(&xp, &yp, n4, &lanes)
			} else {
				gram1x4AVX2(xp[0], &yp, n4, (*[16]float64)(lanes[:16]))
			}
			for i := 0; i < mr; i++ {
				xt := xc[i0+i][lo+n4 : hi]
				row := acc[(i0+i)*sb+j0 : (i0+i)*sb+j0+nr]
				for j := range row {
					p := 4 * (4*i + j)
					row[j] += finishDot(lanes[p:p+4], xt, yc[j0+j][lo+n4:hi])
				}
			}
		}
		i0 += mr
	}
}

func combineAVX2(d, src []float64, xs [][]float64, c []float64, off int) {
	if len(xs) == 0 || len(xs) > 4 {
		panic(fmt.Sprintf("vec: combine group of %d columns", len(xs)))
	}
	n := len(d)
	n4 := n &^ 3
	if n4 > 0 {
		var xp [4]*float64
		var cc [4]float64
		for i, col := range xs {
			xp[i] = &col[off : off+n][0]
			cc[i] = c[i]
		}
		var sp *float64
		if src != nil {
			sp = &src[:n][0]
		}
		combineKAVX2(&d[0], sp, &xp, &cc, n4, len(xs))
	}
	if n4 < n {
		var st []float64
		if src != nil {
			st = src[n4:n]
		}
		combineGo(d[n4:], st, xs, c, off+n4)
	}
}

package vec

import "fmt"

// Micro-kernels: the innermost loops of Dot, of one Gram tile and of one
// column group (up to four columns) of a block combine. Every kernel in the
// package reaches its arithmetic through these three, so they are the only
// code that differs between the portable Go set below and the AVX2 set
// (kernels_amd64.go).
//
// Bitwise contract: every set gives results bitwise identical to the Go set.
//   - A dot product is four strided lane sums (lane k adds the products of
//     rows ≡ k mod 4 in row order); the rows past the last multiple of four
//     are added into lane 0, and the lanes combine as (s0+s1)+(s2+s3).
//   - A combine group sums its column products left to right,
//     ((c0·x0 + c1·x1) + c2·x2) + c3·x3, and then adds that sum to the
//     source row: d = src + sum.
//   - Every product is rounded before it is added: no fused multiply-add.
//     The Go kernels round each product explicitly (float64(a*b)), which
//     keeps the compiler from fusing at any GOAMD64 level.
//
// Gram tile lengths, combine tiles and the pool's part boundaries are chosen
// by the shared code above the micro-kernels, so they are the same for every
// set, and so is every result.

// kernelSet is one implementation of the micro-kernels.
type kernelSet struct {
	name string
	// dot returns aᵀb; len(b) ≥ len(a).
	dot func(a, b []float64) float64
	// gramTile adds Xᵀ·Y over rows [lo,hi) of the columns xc, yc into the
	// row-major len(xc)×len(yc) acc, one Dot-ordered sum per pair.
	gramTile func(acc []float64, xc, yc [][]float64, lo, hi int)
	// combine computes d[r] = src[r] + Σᵢ c[i]·xs[i][off+r] for
	// 1 ≤ len(xs) ≤ 4, the sum associated left to right; src == nil drops
	// the src term and src may be d.
	combine func(d, src []float64, xs [][]float64, c []float64, off int)
}

var goKernels = &kernelSet{name: "go", dot: dotGo, gramTile: gramTileGo, combine: combineGo}

// active is the set every kernel uses. It is chosen once, at init, from the
// CPU's features (kernels_amd64.go) and never changes afterwards.
var active = goKernels

// KernelSet names the micro-kernel set this process runs: "avx2" on amd64
// CPUs with AVX2, "go" elsewhere. Results are identical either way.
func KernelSet() string { return active.name }

func dotGo(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i] * b[i])
		s1 += float64(a[i+1] * b[i+1])
		s2 += float64(a[i+2] * b[i+2])
		s3 += float64(a[i+3] * b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i] * b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

func gramTileGo(acc []float64, xc, yc [][]float64, lo, hi int) {
	sb := len(yc)
	for i, xcol := range xc {
		xi := xcol[lo:hi]
		row := acc[i*sb : (i+1)*sb]
		for j, ycol := range yc {
			row[j] += dotGo(xi, ycol[lo:hi])
		}
	}
}

func combineGo(d, src []float64, xs [][]float64, c []float64, off int) {
	n := len(d)
	if src != nil {
		src = src[:n]
	}
	switch len(xs) {
	case 1:
		x0, c0 := xs[0][off:off+n], c[0]
		if src == nil {
			for r := range d {
				d[r] = c0 * x0[r]
			}
			return
		}
		for r := range d {
			d[r] = src[r] + float64(c0*x0[r])
		}
	case 2:
		x0, x1, c0, c1 := xs[0][off:off+n], xs[1][off:off+n], c[0], c[1]
		if src == nil {
			for r := range d {
				d[r] = float64(c0*x0[r]) + float64(c1*x1[r])
			}
			return
		}
		for r := range d {
			d[r] = src[r] + (float64(c0*x0[r]) + float64(c1*x1[r]))
		}
	case 3:
		x0, x1, x2 := xs[0][off:off+n], xs[1][off:off+n], xs[2][off:off+n]
		c0, c1, c2 := c[0], c[1], c[2]
		if src == nil {
			for r := range d {
				d[r] = float64(c0*x0[r]) + float64(c1*x1[r]) + float64(c2*x2[r])
			}
			return
		}
		for r := range d {
			d[r] = src[r] + (float64(c0*x0[r]) + float64(c1*x1[r]) + float64(c2*x2[r]))
		}
	case 4:
		x0, x1, x2, x3 := xs[0][off:off+n], xs[1][off:off+n], xs[2][off:off+n], xs[3][off:off+n]
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		if src == nil {
			for r := range d {
				d[r] = float64(c0*x0[r]) + float64(c1*x1[r]) + float64(c2*x2[r]) + float64(c3*x3[r])
			}
			return
		}
		for r := range d {
			d[r] = src[r] + (float64(c0*x0[r]) + float64(c1*x1[r]) + float64(c2*x2[r]) + float64(c3*x3[r]))
		}
	default:
		panic(fmt.Sprintf("vec: combine group of %d columns", len(xs)))
	}
}

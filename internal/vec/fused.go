// Fused, cache-blocked block-vector kernels dispatched on the shared worker
// pool (internal/pool). These are the shared-memory realization of the
// paper's s-step argument: instead of s (or s²) separate n-length BLAS1
// sweeps, each kernel makes one pass over its operands with row tiles sized
// to stay cache-resident and 4-way column-grouped inner loops.
//
// Determinism: every kernel partitions rows by the pool's fixed chunking and
// combines per-part accumulators in part order, so results are bitwise
// reproducible for a fixed worker count (and identical whether a dispatch
// runs parallel or inline).
package vec

import (
	"fmt"

	"spcg/internal/pool"
)

// gramTileBytes bounds the working set of one Gram tile: tile rows are chosen
// so that one tile of X plus one tile of Y (~(sa+sb)·tile·8 bytes) fits
// comfortably in L2, making the s×s accumulation a single memory pass.
const gramTileBytes = 1 << 19

// combineTileRows is the row-tile length for the fused combine kernels: the
// destination tile (32 KB) stays L1/L2-resident across column groups, so dst
// is streamed from memory once regardless of the column count.
const combineTileRows = 1 << 12

// gramTile returns the row-tile length for an sa×sb Gram accumulation.
func gramTile(sa, sb int) int {
	t := gramTileBytes / (8 * (sa + sb))
	if t < 512 {
		t = 512
	}
	if t > 1<<13 {
		t = 1 << 13
	}
	return t
}

// GramFused computes the sᵃ×sᵇ matrix Xᵀ·Y (row-major, like Gram) in one
// cache-blocked pass over X and Y, instead of sᵃ·sᵇ independent n-length
// Dot streams. Rows are tiled so both operand tiles stay in L2; each pool
// worker accumulates a private sᵃ×sᵇ block over its fixed row chunk and the
// partials are reduced in part order. With one worker (or below the
// parallel threshold) it is exactly Gram.
func GramFused(x, y *Block) []float64 {
	return gramFused(active, x, y)
}

func gramFused(k *kernelSet, x, y *Block) []float64 {
	if x.N != y.N {
		panic("vec: GramFused row-count mismatch")
	}
	sa, sb := x.S(), y.S()
	out := make([]float64, sa*sb)
	if sa == 0 || sb == 0 || x.N == 0 {
		return out
	}
	pool.CountFusedGram()
	p := pool.Default()
	n := x.N
	if n*sa*sb < parallelThreshold || p.Workers() == 1 {
		gramAccum(k, out, x, y, 0, n)
		return out
	}
	parts := p.NumParts(n)
	partials := make([]float64, parts*sa*sb)
	p.Run(n, func(part, lo, hi int) {
		gramAccum(k, partials[part*sa*sb:(part+1)*sa*sb], x, y, lo, hi)
	})
	for t := 0; t < parts; t++ {
		acc := partials[t*sa*sb : (t+1)*sa*sb]
		for i, v := range acc {
			out[i] += v
		}
	}
	return out
}

// gramAccum adds Xᵀ·Y over rows [lo,hi) into acc, one gramTile call per
// row tile.
func gramAccum(k *kernelSet, acc []float64, x, y *Block, lo, hi int) {
	if x.S() == 0 || y.S() == 0 {
		return
	}
	tile := gramTile(x.S(), y.S())
	for t := lo; t < hi; t += tile {
		k.gramTile(acc, x.Cols, y.Cols, t, min(t+tile, hi))
	}
}

// GramVecFused computes Xᵀ·v as the 1×s Gram vᵀ·X (a dot product is
// symmetric bit for bit), so v's tiles stay cache-resident across the
// block's columns: one memory pass over X and v.
func GramVecFused(x *Block, v []float64) []float64 {
	if len(v) != x.N {
		panic("vec: GramVecFused length mismatch")
	}
	return GramFused(&Block{N: x.N, Cols: [][]float64{v}}, x)
}

// combineSpan computes, over the span d (rows [off, off+len(d)) of the
// block), one destination sweep of a multi-column update:
//
//	base == nil: d (+)= Σ_i coef[i]·cols[i]   ("+=" when accumulate)
//	base != nil: d  = base + Σ_i coef[i]·cols[i]
//
// The first group is one column on top of base, or two columns when d is
// overwritten; the rest go in groups of four (the combine micro-kernel), so
// the inner loop carries four independent product streams while d stays
// register/cache resident.
func combineSpan(k *kernelSet, d []float64, cols [][]float64, coef []float64, off int, base []float64, accumulate bool) {
	i := 0
	if !accumulate {
		switch {
		case len(cols) == 0:
			if base != nil {
				copy(d, base)
			} else {
				Zero(d)
			}
			return
		case base != nil:
			i = 1
		default:
			i = min(2, len(cols))
		}
		k.combine(d, base, cols[:i], coef[:i], off)
	}
	for ; i < len(cols); i += 4 {
		m := min(4, len(cols)-i)
		k.combine(d, d, cols[i:i+m], coef[i:i+m], off)
	}
}

// CombineFused computes dst = X·c (the tall-skinny GEMV of Block.MulVec) in
// one destination sweep instead of s Axpy passes. dst must not alias a
// column of the block.
func (b *Block) CombineFused(dst []float64, c []float64) {
	if len(c) != b.S() {
		panic(fmt.Sprintf("vec: CombineFused coefficient length %d != %d columns", len(c), b.S()))
	}
	if len(dst) != b.N {
		panic("vec: CombineFused dst length mismatch")
	}
	pool.CountFusedCombine()
	p := pool.Default()
	if b.N*(b.S()+1) < parallelThreshold || p.Workers() == 1 {
		combineSpan(active, dst, b.Cols, c, 0, nil, false)
		return
	}
	p.Run(b.N, func(part, lo, hi int) {
		combineSpan(active, dst[lo:hi], b.Cols, c, lo, nil, false)
	})
}

// AddScaledFused computes dst += alpha·(X·c) in one destination sweep
// instead of s Axpy passes (alpha = ±1 covers the solvers' x += P·a and
// r −= AP·a updates).
func (b *Block) AddScaledFused(dst []float64, alpha float64, c []float64) {
	if len(c) != b.S() {
		panic("vec: AddScaledFused coefficient length mismatch")
	}
	if len(dst) != b.N {
		panic("vec: AddScaledFused dst length mismatch")
	}
	coef := c
	//spcglint:ignore floatcmp exact literal-1 fast path: skips the scale pass without changing results
	if alpha != 1 {
		coef = make([]float64, len(c))
		for i, v := range c {
			coef[i] = alpha * v
		}
	}
	pool.CountFusedCombine()
	p := pool.Default()
	if b.N*(b.S()+1) < parallelThreshold || p.Workers() == 1 {
		combineSpan(active, dst, b.Cols, coef, 0, nil, true)
		return
	}
	p.Run(b.N, func(part, lo, hi int) {
		combineSpan(active, dst[lo:hi], b.Cols, coef, lo, nil, true)
	})
}

// transposeCoef gathers C's column j (strided in the row-major sx×sd layout)
// into contiguous per-destination coefficient rows: ct[j*sx+i] = c[i*sd+j].
func transposeCoef(c []float64, sx, sd int) []float64 {
	ct := make([]float64, len(c))
	for j := 0; j < sd; j++ {
		for i := 0; i < sx; i++ {
			ct[j*sx+i] = c[i*sd+j]
		}
	}
	return ct
}

// AddMulFused computes dst = Y + X·C (the BLAS3 search-direction update of
// AddMul) with one destination sweep per column: rows are tiled so each dst
// tile is written once while the column groups accumulate into it. dst must
// not share columns with x; dst may equal y.
func AddMulFused(dst, y, x *Block, c []float64) {
	sx, sd := x.S(), dst.S()
	if y.S() != sd || len(c) != sx*sd || y.N != x.N || dst.N != x.N {
		panic("vec: AddMulFused shape mismatch")
	}
	if sd == 0 || dst.N == 0 {
		return
	}
	pool.CountFusedCombine()
	ct := transposeCoef(c, sx, sd)
	p := pool.Default()
	if dst.N*(sx+1) < parallelThreshold || p.Workers() == 1 {
		addMulRange(dst, y, x, ct, 0, dst.N)
		return
	}
	p.Run(dst.N, func(part, lo, hi int) {
		addMulRange(dst, y, x, ct, lo, hi)
	})
}

// addMulRange applies the fused update to rows [lo,hi), tile by tile.
func addMulRange(dst, y, x *Block, ct []float64, lo, hi int) {
	sx, sd := x.S(), dst.S()
	for t := lo; t < hi; t += combineTileRows {
		te := t + combineTileRows
		if te > hi {
			te = hi
		}
		for j := 0; j < sd; j++ {
			d, yc := dst.Cols[j][t:te], y.Cols[j]
			base := yc[t:te]
			if &d[0] == &base[0] {
				// dst aliases y: accumulate in place.
				combineSpan(active, d, x.Cols, ct[j*sx:(j+1)*sx], t, nil, true)
			} else {
				combineSpan(active, d, x.Cols, ct[j*sx:(j+1)*sx], t, base, false)
			}
		}
	}
}

// MulFused computes dst = X·C (AddMulFused with Y = 0): one destination
// sweep per column instead of sx Axpy passes.
func MulFused(dst, x *Block, c []float64) {
	sx, sd := x.S(), dst.S()
	if len(c) != sx*sd || dst.N != x.N {
		panic("vec: MulFused shape mismatch")
	}
	if sd == 0 || dst.N == 0 {
		return
	}
	pool.CountFusedCombine()
	ct := transposeCoef(c, sx, sd)
	p := pool.Default()
	if dst.N*(sx+1) < parallelThreshold || p.Workers() == 1 {
		mulRange(dst, x, ct, 0, dst.N)
		return
	}
	p.Run(dst.N, func(part, lo, hi int) {
		mulRange(dst, x, ct, lo, hi)
	})
}

func mulRange(dst, x *Block, ct []float64, lo, hi int) {
	sx, sd := x.S(), dst.S()
	for t := lo; t < hi; t += combineTileRows {
		te := t + combineTileRows
		if te > hi {
			te = hi
		}
		for j := 0; j < sd; j++ {
			combineSpan(active, dst.Cols[j][t:te], x.Cols, ct[j*sx:(j+1)*sx], t, nil, false)
		}
	}
}

package vec

import "fmt"

// Block is an n×s tall-skinny multivector stored as s contiguous columns of
// length n. The s-step basis matrices S⁽ᵏ⁾, U⁽ᵏ⁾ and the search-direction
// blocks P⁽ᵏ⁾, AP⁽ᵏ⁾ are Blocks. Column storage keeps the matrix powers
// kernel (which appends one column at a time) allocation-free after setup and
// makes "apply an s×s coefficient matrix from the right" a sequence of fused
// axpys — the BLAS3-style operation the paper credits sPCG's performance to.
type Block struct {
	N    int
	Cols [][]float64
}

// NewBlock allocates an n×s block of zeros backed by a single allocation.
func NewBlock(n, s int) *Block {
	if n < 0 || s < 0 {
		panic(fmt.Sprintf("vec: NewBlock invalid shape %d×%d", n, s))
	}
	backing := make([]float64, n*s)
	cols := make([][]float64, s)
	for j := range cols {
		cols[j] = backing[j*n : (j+1)*n : (j+1)*n]
	}
	return &Block{N: n, Cols: cols}
}

// S returns the number of columns.
func (b *Block) S() int { return len(b.Cols) }

// Col returns column j (a view, not a copy).
func (b *Block) Col(j int) []float64 { return b.Cols[j] }

// Zero clears all columns.
func (b *Block) Zero() {
	for _, c := range b.Cols {
		Zero(c)
	}
}

// CopyFrom copies the columns of src into b. Shapes must match.
func (b *Block) CopyFrom(src *Block) {
	if b.N != src.N || b.S() != src.S() {
		panic("vec: Block CopyFrom shape mismatch")
	}
	for j, c := range src.Cols {
		copy(b.Cols[j], c)
	}
}

// Clone returns a deep copy of b.
func (b *Block) Clone() *Block {
	nb := NewBlock(b.N, b.S())
	nb.CopyFrom(b)
	return nb
}

// View returns a Block sharing columns lo..hi (half-open) of b.
func (b *Block) View(lo, hi int) *Block {
	if lo < 0 || hi > b.S() || lo > hi {
		panic(fmt.Sprintf("vec: Block View [%d,%d) out of range 0..%d", lo, hi, b.S()))
	}
	return &Block{N: b.N, Cols: b.Cols[lo:hi]}
}

// MulVec computes dst = X·c where X is the n×s block and c has length s:
// a tall-skinny GEMV, dst_i = Σ_j X_{ij} c_j. dst must not alias a column.
// It is the serial, unpooled entry of CombineFused (same kernel, same
// results), for callers that run on their own goroutine such as spmd ranks.
func (b *Block) MulVec(dst []float64, c []float64) {
	if len(c) != b.S() {
		panic(fmt.Sprintf("vec: Block MulVec coefficient length %d != %d columns", len(c), b.S()))
	}
	if len(dst) != b.N {
		panic("vec: Block MulVec dst length mismatch")
	}
	combineSpan(active, dst, b.Cols, c, 0, nil, false)
}

// MulVecAdd computes dst += X·c (serial AddScaledFused with alpha = 1).
func (b *Block) MulVecAdd(dst []float64, c []float64) {
	if len(c) != b.S() {
		panic("vec: Block MulVecAdd coefficient length mismatch")
	}
	if len(dst) != b.N {
		panic("vec: Block MulVecAdd dst length mismatch")
	}
	combineSpan(active, dst, b.Cols, c, 0, nil, true)
}

// MulVecSub computes dst -= X·c (serial AddScaledFused with alpha = −1).
func (b *Block) MulVecSub(dst []float64, c []float64) {
	if len(c) != b.S() {
		panic("vec: Block MulVecSub coefficient length mismatch")
	}
	if len(dst) != b.N {
		panic("vec: Block MulVecSub dst length mismatch")
	}
	neg := make([]float64, len(c))
	for i, v := range c {
		neg[i] = -v
	}
	combineSpan(active, dst, b.Cols, neg, 0, nil, true)
}

// Gram computes the sᵃ×sᵇ matrix Xᵀ·Y (row-major, row i = column i of X
// against all columns of Y). This is the local part of the s-step methods'
// single global reduction. It is the serial, unpooled entry of GramFused:
// the same tiles and micro-kernels over all rows, for callers that run on
// their own goroutine such as spmd ranks (pool dispatches are serialized).
func Gram(x, y *Block) []float64 {
	if x.N != y.N {
		panic("vec: Gram row-count mismatch")
	}
	out := make([]float64, x.S()*y.S())
	gramAccum(active, out, x, y, 0, x.N)
	return out
}

// GramVec computes the length-s vector Xᵀ·v (serial GramVecFused).
func GramVec(x *Block, v []float64) []float64 {
	if len(v) != x.N {
		panic("vec: GramVec length mismatch")
	}
	return Gram(&Block{N: x.N, Cols: [][]float64{v}}, x)
}

// AddMul computes dst = Y + X·C where C is sₓ×s_dst row-major (C[i*s+j]
// multiplies column i of X into column j of dst): the search-direction update
// P⁽ᵏ⁾ = U⁽ᵏ⁾ + P⁽ᵏ⁻¹⁾B⁽ᵏ⁾ of Algorithms 2 and 5. dst must not share
// columns with x; dst may equal y. It is the serial, unpooled entry of
// AddMulFused.
func AddMul(dst, y, x *Block, c []float64) {
	sx, sd := x.S(), dst.S()
	if y.S() != sd || len(c) != sx*sd || y.N != x.N || dst.N != x.N {
		panic("vec: AddMul shape mismatch")
	}
	if sd == 0 || dst.N == 0 {
		return
	}
	addMulRange(dst, y, x, transposeCoef(c, sx, sd), 0, dst.N)
}

// Mul computes dst = X·C (as AddMul with Y = 0); the serial, unpooled entry
// of MulFused.
func Mul(dst, x *Block, c []float64) {
	sx, sd := x.S(), dst.S()
	if len(c) != sx*sd || dst.N != x.N {
		panic("vec: Mul shape mismatch")
	}
	if sd == 0 || dst.N == 0 {
		return
	}
	mulRange(dst, x, transposeCoef(c, sx, sd), 0, dst.N)
}

// GramF32 is Gram with float32 accumulation: the mixed-precision variant
// studied by Carson, Gergelits & Yamazaki (paper ref. [5]) computes the
// s-step Gram matrices in lower precision to cut reduction bandwidth. The
// result is returned in float64 but carries single-precision rounding.
func GramF32(x, y *Block) []float64 {
	if x.N != y.N {
		panic("vec: GramF32 row-count mismatch")
	}
	sa, sb := x.S(), y.S()
	out := make([]float64, sa*sb)
	for i := 0; i < sa; i++ {
		xi := x.Cols[i]
		for j := 0; j < sb; j++ {
			yj := y.Cols[j]
			var acc float32
			for k := range xi {
				acc += float32(xi[k]) * float32(yj[k])
			}
			out[i*sb+j] = float64(acc)
		}
	}
	return out
}

package solver

import (
	"fmt"
	"math"

	"spcg/internal/dense"
	"spcg/internal/mpk"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// CAPCG solves A·x = b with Toledo's communication-avoiding PCG (paper
// Algorithm 3). Each outer iteration builds the two-space basis
//
//	Y = [Q | R̂]   span(Q) = K_{s+1}(AM⁻¹, q),  span(R̂) = K_s(AM⁻¹, r)
//	Z = M⁻¹·Y = [P | U]
//
// computes the (2s+1)² Gram matrix G = ZᵀY with a single global reduction,
// and runs s exact PCG steps on (2s+1)-vectors in the changed basis, using
// the block change-of-basis matrix B to apply A without communication. The
// full vectors are recovered at the end of the outer iteration.
//
// CA-PCG is the most robust s-step method in the paper's Table 2, but it
// needs 2s−1 matrix-vector products and preconditioner applications per s
// steps (vs. s for PCG/sPCG/CA-PCG3), which Table 3 and Figure 1 show makes
// it slower than standard PCG even with a cheap Jacobi preconditioner.
func CAPCG(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return run(capcg, a, m, b, opts)
}

func capcg(c *ctx, b []float64, opts Options) ([]float64, error) {
	n, s, stats := c.n, opts.S, c.stats
	params, err := resolveBasis(c.a, c.m, &opts)
	if err != nil {
		return nil, err
	}
	x := c.initialGuess(opts)

	dim := 2*s + 1
	r := make([]float64, n)
	u := make([]float64, n)
	q := make([]float64, n)
	p := make([]float64, n)
	scratch := make([]float64, n)

	// Basis blocks: Y = [Q | R̂], Z = [Pz | Uz] (full-width preconditioned).
	qBlock := vec.NewBlock(n, s+1)
	pBlock := vec.NewBlock(n, s+1)
	rBlock := vec.NewBlock(n, s)
	uBlock := vec.NewBlock(n, s)
	y := &vec.Block{N: n, Cols: append(append([][]float64{}, qBlock.Cols...), rBlock.Cols...)}
	z := &vec.Block{N: n, Cols: append(append([][]float64{}, pBlock.Cols...), uBlock.Cols...)}

	// Change-of-basis matrix for the inner iterations: A·Z̲ = Y·B.
	bMat := params.CAPCGChangeOfBasis(s)

	// r⁰ = b − A·x⁰, u⁰ = M⁻¹r⁰, q⁰ = r⁰, p⁰ = u⁰.
	c.residual(r, b, x)
	c.applyM(u, r)
	copy(q, r)
	copy(p, u)

	// Small coefficient vectors in the changed basis.
	pc := make([]float64, dim)
	rc := make([]float64, dim)
	xc := make([]float64, dim)
	bp := make([]float64, dim)
	gv := make([]float64, dim)

	var ck *checker
	maxOuter := (opts.MaxIterations + s - 1) / s

	for k := 0; k <= maxOuter; k++ {
		if c.cancelled() {
			return finishCancelled(c, b, x, opts)
		}
		// Convergence check at the block boundary.
		rho, rr := c.boundary(r, u, opts.Criterion)
		if !finite(rho, rr) || rho < 0 {
			stats.Breakdown = fmt.Errorf("%w: rᵀM⁻¹r = %v at outer iteration %d", ErrBreakdown, rho, k)
			break
		}
		var critVal float64
		switch opts.Criterion {
		case TrueResidual2Norm:
			critVal = c.trueResidualNorm(b, x, scratch)
		case RecursiveResidual2Norm:
			critVal = math.Sqrt(rr)
		case RecursiveResidualMNorm:
			critVal = math.Sqrt(rho)
		}
		if ck == nil {
			ck = newChecker(opts, critVal, stats)
		}
		if ck.done(critVal) {
			stats.Converged = true
			break
		}
		if k == maxOuter || k*s >= opts.MaxIterations {
			break
		}

		// Basis generation: Q from q (degree s, s MVs + s precs since p⁰ is
		// known), R̂ from r (degree s−1, s−1 MVs + s−1 precs since u⁰ is
		// known). Total 2s−1 of each, matching Table 1.
		if err := mpk.Compute(mpkOp{c}, mpkPrec{c}, params, q, p, qBlock, pBlock); err != nil {
			stats.Breakdown = fmt.Errorf("%w: Q-block MPK: %v", ErrBreakdown, err)
			break
		}
		if s >= 2 {
			if err := mpk.Compute(mpkOp{c}, mpkPrec{c}, params, r, u, rBlock, uBlock); err != nil {
				stats.Breakdown = fmt.Errorf("%w: R-block MPK: %v", ErrBreakdown, err)
				break
			}
		} else {
			vec.Copy(rBlock.Col(0), r)
			vec.Copy(uBlock.Col(0), u)
		}

		// Gram matrix G = ZᵀY: the single global reduction of the outer
		// iteration (payload (2s+1)², +1 when the 2-norm criterion is fused).
		payload := dim * dim
		if opts.Criterion == RecursiveResidual2Norm {
			payload++
		}
		g := dense.FromRowMajor(dim, dim, c.reduce(payload, c.gram(z, y)...))

		// Inner loop on (2s+1)-vectors: exact PCG arithmetic in the basis.
		for i := range pc {
			pc[i], rc[i], xc[i] = 0, 0, 0
		}
		pc[0] = 1
		rc[s+1] = 1
		rGr := quadForm(g, rc, gv) // r'ᵀGr'
		broke := false
		for j := 0; j < s; j++ {
			matVec(bMat, pc, bp) // B·p'
			den := bilinear(g, pc, bp, gv)
			if !finite(den, rGr) || den <= 0 {
				stats.Breakdown = fmt.Errorf("%w: p'ᵀGBp' = %v at iteration %d", ErrBreakdown, den, k*s+j)
				broke = true
				break
			}
			alpha := rGr / den
			for i := range xc {
				xc[i] += alpha * pc[i]
				rc[i] -= alpha * bp[i]
			}
			rGrNew := quadForm(g, rc, gv)
			if !finite(rGrNew) || rGrNew < 0 {
				stats.Breakdown = fmt.Errorf("%w: r'ᵀGr' = %v at iteration %d", ErrBreakdown, rGrNew, k*s+j)
				broke = true
				break
			}
			beta := rGrNew / rGr
			rGr = rGrNew
			for i := range pc {
				pc[i] = rc[i] + beta*pc[i]
			}
		}
		// O(s³) scalar work per outer iteration, negligible next to O(sn):
		// charged as one lump.
		c.tr.VectorOp(float64(8*s*dim*dim), float64(8*s*dim*dim))

		// Recovery: q = Y·p', r = Y·r', p = Z·p', u = Z·r', x += Z·x'
		// (the O(sn) cost the paper credits CA-PCG's local work advantage to).
		c.blockVec(c.k.combine, q, y, pc)
		c.blockVec(c.k.combine, r, y, rc)
		c.blockVec(c.k.combine, p, z, pc)
		c.blockVec(c.k.combine, u, z, rc)
		c.blockVec(c.k.addTo, x, z, xc)

		stats.OuterIterations = k + 1
		stats.Iterations = (k + 1) * s
		// A diverged residual surfaces as a non-finite rᵀu at the next
		// boundary: a reduced value, so every rank takes the same branch.
		if broke {
			break
		}
	}
	return finishRun(c, b, x, opts), nil
}

// matVec computes dst = M·v for a small dense matrix.
func matVec(m *dense.Mat, v, dst []float64) {
	for i := 0; i < m.R; i++ {
		var sum float64
		row := m.Data[i*m.C : (i+1)*m.C]
		for j, vj := range v {
			sum += row[j] * vj
		}
		dst[i] = sum
	}
}

// quadForm computes vᵀGv using tmp as scratch.
func quadForm(g *dense.Mat, v, tmp []float64) float64 {
	matVec(g, v, tmp)
	var sum float64
	for i, vi := range v {
		sum += vi * tmp[i]
	}
	return sum
}

// bilinear computes aᵀGb using tmp as scratch.
func bilinear(g *dense.Mat, a, b, tmp []float64) float64 {
	matVec(g, b, tmp)
	var sum float64
	for i, ai := range a {
		sum += ai * tmp[i]
	}
	return sum
}

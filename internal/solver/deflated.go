package solver

import (
	"fmt"
	"math"

	"spcg/internal/dense"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// DeflatedPCG solves A·x = b with deflation of a given subspace W (paper
// ref. [4], Carson–Knight–Demmel, here applied to standard PCG): search
// happens A-orthogonally to span(W), which removes the eigenvalues W captures
// from the effective spectrum. With W spanning approximations of the lowest
// eigenvectors — e.g. Ritz vectors from eig.RitzFromPCG — the preconditioned
// condition number drops to λmax/λ_{k+1} and iteration counts fall
// accordingly.
//
// Implementation: the projector Π = I − A·W·(WᵀAW)⁻¹·Wᵀ is applied to every
// residual, and the final solution is corrected by the deflated component
// x += W·(WᵀAW)⁻¹·Wᵀ·b. Each application costs one (small) dense solve and
// 2k axpys; AW is precomputed.
func DeflatedPCG(a *sparse.CSR, m precond.Interface, b []float64, w *vec.Block, opts Options) ([]float64, *Stats, error) {
	if w == nil || w.S() == 0 {
		return PCG(a, m, b, opts)
	}
	return run(func(c *ctx, b []float64, opts Options) ([]float64, error) {
		return deflatedPCG(c, b, w, opts)
	}, a, m, b, opts)
}

func deflatedPCG(c *ctx, b []float64, w *vec.Block, opts Options) ([]float64, error) {
	n, stats := c.n, c.stats
	if w.N != n {
		return nil, fmt.Errorf("%w: deflation block has %d rows, n=%d", ErrDimension, w.N, n)
	}
	if opts.X0 != nil {
		return nil, fmt.Errorf("solver: DeflatedPCG does not support a nonzero initial guess")
	}
	k := w.S()

	// Precompute AW and factor WᵀAW.
	aw := vec.NewBlock(n, k)
	for j := 0; j < k; j++ {
		c.spmv(aw.Col(j), w.Col(j))
	}
	waw := dense.FromRowMajor(k, k, c.reduce(k*k, c.gram(w, aw)...))
	waw.Symmetrize()
	if cond := dense.Cond2SPD(waw); cond > 1e12 {
		return nil, fmt.Errorf("solver: WᵀAW has condition %.2g — deflation vectors are numerically dependent", cond)
	}
	chol, err := dense.Cholesky(waw)
	if err != nil {
		return nil, fmt.Errorf("solver: WᵀAW not SPD (deflation vectors dependent?): %w", err)
	}

	// project applies Π: v −= AW·(WᵀAW)⁻¹·Wᵀ·v (one k-value allreduce).
	project := func(v []float64) error {
		coef := c.reduce(k, c.gramVec(w, v)...)
		if err := chol.Solve(coef); err != nil {
			return err
		}
		c.blockVec(c.k.subFrom, v, aw, coef)
		return nil
	}

	x := make([]float64, n)
	r := append([]float64(nil), b...)
	u := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n)
	scratch := make([]float64, n)

	if err := project(r); err != nil {
		return nil, err
	}
	c.applyM(u, r)
	rho := c.dot(r, u)
	if !finite(rho) || rho < 0 {
		stats.Breakdown = fmt.Errorf("%w: initial rᵀM⁻¹r = %v", ErrBreakdown, rho)
		return finishDeflated(c, b, x, w, chol, opts)
	}
	copy(p, u)

	initial := math.Sqrt(math.Max(rho, 0))
	if opts.Criterion != RecursiveResidualMNorm {
		initial = math.Sqrt(c.dot(r, r))
	}
	ck := newChecker(opts, initial, stats)
	if ck.done(initial) {
		stats.Converged = true
		return finishDeflated(c, b, x, w, chol, opts)
	}

	for i := 0; i < opts.MaxIterations; i++ {
		if c.cancelled() {
			// The deflated correction step still runs: the partial iterate is
			// returned with its exactly-solvable component included.
			x, err := finishDeflated(c, b, x, w, chol, opts)
			if err == nil && !stats.Converged {
				err = ErrCancelled
			}
			return x, err
		}
		c.spmv(s, p)
		if err := project(s); err != nil {
			stats.Breakdown = fmt.Errorf("%w: %v", ErrBreakdown, err)
			break
		}
		den := c.dot(p, s)
		if !finite(den) || den <= 0 {
			stats.Breakdown = fmt.Errorf("%w: pᵀΠAp = %v at iteration %d", ErrBreakdown, den, i)
			break
		}
		alpha := rho / den
		c.axpy(alpha, p, x)
		c.axpy(-alpha, s, r)
		c.applyM(u, r)
		rhoNew := c.dot(r, u)
		if !finite(rhoNew) || rhoNew < 0 {
			stats.Breakdown = fmt.Errorf("%w: rᵀM⁻¹r = %v at iteration %d", ErrBreakdown, rhoNew, i)
			break
		}
		beta := rhoNew / rho
		rho = rhoNew
		c.xpay(p, u, beta, p)

		stats.Iterations = i + 1
		stats.OuterIterations = i + 1
		// All criteria reduce to the projected M-norm here: the deflated
		// residual lives in the complement of A·span(W), so 2-norm-style
		// criteria would miss the (exactly solvable) deflated component.
		// Stats.TrueRelResidual reports the honest full residual after the
		// correction step.
		val := math.Sqrt(rho)
		_ = scratch
		if ck.done(val) {
			stats.Converged = true
			break
		}
	}
	return finishDeflated(c, b, x, w, chol, opts)
}

// finishDeflated adds the deflated component: the CG part leaves a residual
// inside A·span(W), removed by x += W·(WᵀAW)⁻¹·Wᵀ·(b − A·x). Fills the
// shared end-of-run stats.
func finishDeflated(c *ctx, b, x []float64, w *vec.Block, chol *dense.Chol, opts Options) ([]float64, error) {
	res := make([]float64, c.n)
	c.residual(res, b, x)
	coef := c.reduce(w.S(), c.gramVec(w, res)...)
	if err := chol.Solve(coef); err != nil {
		return nil, err
	}
	c.blockVec(c.k.addTo, x, w, coef)
	return finishRun(c, b, x, opts), nil
}

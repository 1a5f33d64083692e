package solver

import (
	"fmt"
	"math"

	"spcg/internal/obs"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// PipelinedPCG solves A·x = b with the communication-hiding pipelined PCG of
// Ghysels & Vanroose (2014) — the state-of-the-art class the paper's
// introduction explicitly defers comparing against ("we leave the comparison
// of s-step methods and state-of-the-art pipelined methods for future
// work"). This implementation, together with experiments.RunPipeline,
// carries out that comparison on the modeled cluster.
//
// Pipelined PCG fuses both inner products of an iteration into a single
// non-blocking allreduce and overlaps its completion with the next
// preconditioner application and matrix-vector product. The extra recurrences
// (w = A·u, m = M⁻¹w, n = A·m, and the derived s, q, z updates) cost more
// local vector work than PCG and one extra SpMV+preconditioner pair per
// iteration is replaced by recurrences — but rounding error accumulates in
// the longer recurrence chains, which is why its residual can stagnate
// earlier than PCG's (Cools et al. 2019 propose corrected variants).
func PipelinedPCG(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return run(pipelinedPCG, a, m, b, opts)
}

func pipelinedPCG(c *ctx, b []float64, opts Options) ([]float64, error) {
	n, stats := c.n, c.stats
	x := c.initialGuess(opts)
	r := make([]float64, n)
	u := make([]float64, n)
	w := make([]float64, n)
	mv := make([]float64, n) // m = M⁻¹w
	nv := make([]float64, n) // n = A·m
	z := make([]float64, n)
	q := make([]float64, n)
	s := make([]float64, n)
	p := make([]float64, n)
	scratch := make([]float64, n)

	c.residual(r, b, x)
	c.applyM(u, r)
	c.spmv(w, u)

	gamma := c.dot(r, u)
	if !finite(gamma) || gamma < 0 {
		stats.Breakdown = fmt.Errorf("%w: initial rᵀM⁻¹r = %v", ErrBreakdown, gamma)
		return finishRun(c, b, x, opts), nil
	}
	initial, err := initialCriterionValue(c, opts, b, x, r, gamma, scratch)
	if err != nil {
		stats.Breakdown = err
		return finishRun(c, b, x, opts), nil
	}
	ck := newChecker(opts, initial, stats)
	if ck.done(initial) {
		stats.Converged = true
		return finishRun(c, b, x, opts), nil
	}

	var alpha, gammaOld float64
	for i := 0; i < opts.MaxIterations; i++ {
		if c.cancelled() {
			return finishCancelled(c, b, x, opts)
		}
		// Local dots for γ = (r,u), δ = (w,u) — and ‖r‖² when the 2-norm
		// criterion is active — then ONE non-blocking allreduce whose
		// completion hides behind the next M⁻¹w and A·m.
		gammaNew := c.localDot(r, u)
		delta := c.localDot(w, u)
		var rr float64
		values := 2
		if opts.Criterion == RecursiveResidual2Norm {
			rr = c.localDot(r, r)
			values = 3
		}
		c.tr.AllreduceOverlappedBySpMVPrec(values, c.m.Flops())
		c.obs.Count(obs.PhaseCollective, int64(values))
		stats.Allreduces++
		stats.AllreduceValues += values

		// Overlapped work: m = M⁻¹w, n = A·m.
		c.applyM(mv, w)
		c.spmv(nv, mv)

		if !finite(gammaNew, delta) || gammaNew < 0 {
			stats.Breakdown = fmt.Errorf("%w: γ=%v δ=%v at iteration %d", ErrBreakdown, gammaNew, delta, i)
			break
		}
		var beta float64
		if i > 0 {
			beta = gammaNew / gammaOld
			den := delta - beta*gammaNew/alpha
			if den == 0 || !finite(den) {
				stats.Breakdown = fmt.Errorf("%w: pipelined α denominator %v at iteration %d", ErrBreakdown, den, i)
				break
			}
			alpha = gammaNew / den
		} else {
			if delta <= 0 {
				stats.Breakdown = fmt.Errorf("%w: wᵀu = %v at iteration 0", ErrBreakdown, delta)
				break
			}
			alpha = gammaNew / delta
		}

		// Recurrence updates (8 fused BLAS1 updates).
		for j := 0; j < n; j++ {
			z[j] = nv[j] + beta*z[j]
			q[j] = mv[j] + beta*q[j]
			s[j] = w[j] + beta*s[j]
			p[j] = u[j] + beta*p[j]
			x[j] += alpha * p[j]
			r[j] -= alpha * s[j]
			u[j] -= alpha * q[j]
			w[j] -= alpha * z[j]
		}
		c.tr.VectorOp(16*float64(n), 10*8*float64(n))

		gammaOld = gammaNew
		stats.Iterations = i + 1
		stats.OuterIterations = i + 1

		var val float64
		switch opts.Criterion {
		case TrueResidual2Norm:
			val = c.trueResidualNorm(b, x, scratch)
		case RecursiveResidual2Norm:
			// One-iteration lag (pre-update ‖r‖), like PCG3.
			val = math.Sqrt(rr)
		case RecursiveResidualMNorm:
			val = math.Sqrt(gammaNew)
		}
		if ck.done(val) {
			stats.Converged = true
			break
		}
	}
	return finishRun(c, b, x, opts), nil
}

package solver

import (
	"fmt"
	"math"

	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// PCG solves A·x = b with the standard Preconditioned Conjugate Gradient
// method (paper Algorithm 1). It performs two global reductions per
// iteration — the scalability bottleneck the s-step variants remove.
func PCG(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return run(pcg, a, m, b, opts)
}

func pcg(c *ctx, b []float64, opts Options) ([]float64, error) {
	n, stats := c.n, c.stats
	x := c.initialGuess(opts)
	r := make([]float64, n)
	u := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n)
	scratch := make([]float64, n)

	// r⁰ = b − A·x⁰, u⁰ = M⁻¹r⁰, p⁰ = u⁰.
	c.residual(r, b, x)
	c.applyM(u, r)

	rho := c.dot(r, u)
	if !finite(rho) || rho < 0 {
		stats.Breakdown = fmt.Errorf("%w: initial rᵀM⁻¹r = %v (preconditioner not SPD?)", ErrBreakdown, rho)
		return finishRun(c, b, x, opts), nil
	}
	copy(p, u)

	initial, err := initialCriterionValue(c, opts, b, x, r, rho, scratch)
	if err != nil {
		stats.Breakdown = err
		return finishRun(c, b, x, opts), nil
	}
	ck := newChecker(opts, initial, stats)
	// Check the initial state (x⁰ may already solve the system).
	if ck.done(initial) {
		stats.Converged = true
		return finishRun(c, b, x, opts), nil
	}
	// Fault detection/recovery (opt-in): verified initial state is the first
	// checkpoint, so a rollback is always possible.
	g := newGuard(c, opts, b)
	if g != nil {
		g.checkpoint(x, r, p, rho)
	}

	for i := 0; i < opts.MaxIterations; i++ {
		if c.cancelled() {
			return finishCancelled(c, b, x, opts)
		}
		c.spmv(s, p)
		den := c.dot(p, s) // global reduction 1
		if !finite(den) || den <= 0 {
			// A corrupted iterate can masquerade as a breakdown; with
			// recovery enabled, roll back and resume before giving up.
			if g.restore(x, r, p, &rho) {
				continue
			}
			stats.Breakdown = fmt.Errorf("%w: pᵀAp = %v at iteration %d", ErrBreakdown, den, i)
			break
		}
		alpha := rho / den
		c.axpy(alpha, p, x)
		c.axpy(-alpha, s, r)
		c.inj.CorruptVector(r)
		c.applyM(u, r)

		// Global reduction 2: rᵀu (and ‖r‖² fused when the criterion needs it).
		var rhoNew, rr float64
		if opts.Criterion == RecursiveResidual2Norm {
			v := c.reduce(2, c.localDot(r, u), c.localDot(r, r))
			rhoNew, rr = v[0], v[1]
		} else {
			rhoNew = c.dot(r, u)
		}
		if !finite(rhoNew) || rhoNew < 0 {
			if g.restore(x, r, p, &rho) {
				continue
			}
			stats.Breakdown = fmt.Errorf("%w: rᵀM⁻¹r = %v at iteration %d", ErrBreakdown, rhoNew, i)
			break
		}
		beta := rhoNew / rho
		rho = rhoNew
		c.xpay(p, u, beta, p)

		stats.Iterations = i + 1
		stats.OuterIterations = i + 1
		if g.due(i + 1) {
			if g.corrupted(x, r, scratch) {
				if !g.restore(x, r, p, &rho) {
					stats.Breakdown = errRollbackBudget(g.maxRollbacks)
					break
				}
				continue
			}
			g.checkpoint(x, r, p, rho)
		}
		var val float64
		switch opts.Criterion {
		case TrueResidual2Norm:
			val = c.trueResidualNorm(b, x, scratch)
		case RecursiveResidual2Norm:
			val = math.Sqrt(rr)
		case RecursiveResidualMNorm:
			val = math.Sqrt(rho)
		}
		if ck.done(val) {
			stats.Converged = true
			break
		}
	}
	return finishRun(c, b, x, opts), nil
}

// initialCriterionValue computes the criterion's reference value for the
// initial state.
func initialCriterionValue(c *ctx, opts Options, b, x, r []float64, rho float64, scratch []float64) (float64, error) {
	switch opts.Criterion {
	case TrueResidual2Norm, RecursiveResidual2Norm:
		// ‖r⁰‖₂: the true and recursive residuals coincide initially.
		v := c.dot(r, r)
		if !finite(v) {
			return 0, fmt.Errorf("%w: initial ‖r‖² = %v", ErrBreakdown, v)
		}
		return math.Sqrt(v), nil
	case RecursiveResidualMNorm:
		return math.Sqrt(math.Max(rho, 0)), nil
	default:
		return 0, fmt.Errorf("solver: unknown criterion %v", opts.Criterion)
	}
}

// finishRun fills the end-of-run stats shared by all solvers. On a rank
// the true residual needs the whole solution, so Distributed reports it.
func finishRun(c *ctx, b, x []float64, opts Options) []float64 {
	if c.rank == nil {
		reportTrueResidual(c.a, b, x, opts.X0, opts.Tol, c.stats)
	}
	if c.tr != nil {
		c.stats.SimTime = c.tr.Time
		c.stats.RetriedMessages = c.tr.Counts.RetriedMessages
	}
	if c.obs != nil {
		c.stats.Phases = c.obs.Breakdown().Phases
	}
	return x
}

// reportTrueResidual sets Stats.TrueRelResidual of x. A run that broke down
// *after* actually reaching the requested accuracy (common when a block
// method converges mid-block and the next Gram matrix is numerically
// singular) is reported as converged — the paper's tables count accuracy
// reached, not the internal stopping path.
func reportTrueResidual(a *sparse.CSR, b, x, x0 []float64, tol float64, stats *Stats) {
	stats.TrueRelResidual = rawTrueRelResidual(a, b, x, x0)
	if !stats.Converged && stats.TrueRelResidual <= tol {
		stats.Converged = true
	}
}

// finishCancelled finalizes a run whose Options.Cancel fired: the partial
// iterate and stats are returned like any other early stop, with ErrCancelled
// as the error — unless the iterate already meets the tolerance, in which
// case the run simply reports convergence.
func finishCancelled(c *ctx, b, x []float64, opts Options) ([]float64, error) {
	x = finishRun(c, b, x, opts)
	if c.stats.Converged {
		return x, nil
	}
	return x, ErrCancelled
}

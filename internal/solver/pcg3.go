package solver

import (
	"fmt"
	"math"

	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// PCG3 solves A·x = b with the Rutishauser three-term-recurrence variant of
// PCG — the mathematical basis of CA-PCG3 (paper §2.4). Instead of search
// directions it updates residuals (and solutions) with
//
//	r⁽ⁱ⁺¹⁾ = ρ⁽ⁱ⁾(r⁽ⁱ⁾ − γ⁽ⁱ⁾·A·u⁽ⁱ⁾) + (1−ρ⁽ⁱ⁾)·r⁽ⁱ⁻¹⁾.
//
// Both inner products of an iteration (μ = rᵀu and ν = uᵀAu) are available
// together, so PCG3 needs only one (two-value) global reduction per
// iteration — but three-term recurrences accumulate rounding error faster
// than PCG's coupled two-term form (Gutknecht & Strakoš), which is the
// numerical weakness CA-PCG3 inherits.
func PCG3(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return run(pcg3, a, m, b, opts)
}

func pcg3(c *ctx, b []float64, opts Options) ([]float64, error) {
	n, stats := c.n, c.stats
	x := c.initialGuess(opts)
	r := make([]float64, n)
	u := make([]float64, n)
	w := make([]float64, n)
	v := make([]float64, n)
	xPrev := make([]float64, n)
	rPrev := make([]float64, n)
	uPrev := make([]float64, n)
	xNext := make([]float64, n)
	rNext := make([]float64, n)
	uNext := make([]float64, n)
	scratch := make([]float64, n)

	c.residual(r, b, x)
	c.applyM(u, r)

	mu := c.dot(r, u)
	if !finite(mu) || mu < 0 {
		stats.Breakdown = fmt.Errorf("%w: initial rᵀM⁻¹r = %v", ErrBreakdown, mu)
		return finishRun(c, b, x, opts), nil
	}
	initial, err := initialCriterionValue(c, opts, b, x, r, mu, scratch)
	if err != nil {
		stats.Breakdown = err
		return finishRun(c, b, x, opts), nil
	}
	ck := newChecker(opts, initial, stats)
	if ck.done(initial) {
		stats.Converged = true
		return finishRun(c, b, x, opts), nil
	}

	rho := 1.0
	var gammaPrev, muPrev, rhoPrev float64
	for i := 0; i < opts.MaxIterations; i++ {
		if c.cancelled() {
			return finishCancelled(c, b, x, opts)
		}
		c.spmv(w, u)   // w = A·u
		c.applyM(v, w) // v = M⁻¹·A·u
		var rr float64
		var dots []float64
		if opts.Criterion == RecursiveResidual2Norm {
			dots = c.dots([2][]float64{r, u}, [2][]float64{u, w}, [2][]float64{r, r})
			rr = dots[2]
		} else {
			dots = c.dots([2][]float64{r, u}, [2][]float64{u, w})
		}
		mu, nu := dots[0], dots[1]
		if !finite(mu, nu) || nu <= 0 || mu < 0 {
			stats.Breakdown = fmt.Errorf("%w: μ=%v ν=%v at iteration %d", ErrBreakdown, mu, nu, i)
			break
		}
		gamma := mu / nu
		if i > 0 {
			den := 1 - (gamma/gammaPrev)*(mu/muPrev)*(1/rhoPrev)
			if den == 0 || !finite(den) {
				stats.Breakdown = fmt.Errorf("%w: ρ recurrence denominator %v at iteration %d", ErrBreakdown, den, i)
				break
			}
			rho = 1 / den
		}

		// Three-term updates (BLAS1).
		c.threeTermUpdate(xNext, rho, x, -gamma, u, xPrev)
		c.threeTermUpdate(rNext, rho, r, gamma, w, rPrev)
		c.threeTermUpdate(uNext, rho, u, gamma, v, uPrev)
		xPrev, x, xNext = x, xNext, xPrev
		rPrev, r, rNext = r, rNext, rPrev
		uPrev, u, uNext = u, uNext, uPrev

		gammaPrev, muPrev, rhoPrev = gamma, mu, rho
		stats.Iterations = i + 1
		stats.OuterIterations = i + 1

		var val float64
		switch opts.Criterion {
		case TrueResidual2Norm:
			val = c.trueResidualNorm(b, x, scratch)
		case RecursiveResidual2Norm:
			// rr is ‖r⁽ⁱ⁾‖² of the pre-update residual; the post-update
			// norm arrives next iteration. Accept the one-step lag (the
			// paper's s-step methods lag by a whole block similarly).
			val = math.Sqrt(rr)
		case RecursiveResidualMNorm:
			val = math.Sqrt(mu)
		}
		if ck.done(val) {
			stats.Converged = true
			break
		}
	}
	return finishRun(c, b, x, opts), nil
}

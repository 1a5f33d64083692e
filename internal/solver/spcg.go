package solver

import (
	"fmt"
	"math"

	"spcg/internal/dense"
	"spcg/internal/mpk"
	"spcg/internal/obs"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// SPCG solves A·x = b with the paper's contribution: the s-step PCG method
// of Chronopoulos & Gear generalized to arbitrary basis types (Algorithm 5
// with the "Scalar Work" of Algorithm 6). Per outer iteration it computes
// the s+1-column basis matrix S⁽ᵏ⁾ and its preconditioned companion U⁽ᵏ⁾
// with the matrix powers kernel, performs a single global reduction (the
// fused Gram matrices UᵀS and PᵀS), solves two s×s systems for the block
// coefficients a⁽ᵏ⁾ and B⁽ᵏ⁾, and advances s PCG steps with BLAS3-style
// block updates:
//
//	P⁽ᵏ⁾  = U⁽ᵏ⁾  + P⁽ᵏ⁻¹⁾·B⁽ᵏ⁾      AU⁽ᵏ⁾ = S⁽ᵏ⁾·B   (change of basis)
//	AP⁽ᵏ⁾ = S⁽ᵏ⁾·B + AP⁽ᵏ⁻¹⁾·B⁽ᵏ⁾
//	x     += P⁽ᵏ⁾·a⁽ᵏ⁾                r −= AP⁽ᵏ⁾·a⁽ᵏ⁾
//
// One deliberate deviation from the printed Algorithm 6 is documented in
// DESIGN.md: the B⁽ᵏ⁾ system is solved with the transpose orientation that
// the A-orthogonality condition P⁽ᵏ⁾ᵀAP⁽ᵏ⁻¹⁾ = 0 actually requires.
func SPCG(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return run(spcg, a, m, b, opts)
}

// SPCGMon solves A·x = b with the original monomial-basis s-step PCG of
// Chronopoulos & Gear (Algorithm 2, "sPCG_mon"). It differs from
// SPCG-with-monomial-basis in how the Scalar Work forms its small matrices:
// the matrix of moments U⁽ᵏ⁾ᵀAU⁽ᵏ⁾ and the right-hand side R⁽ᵏ⁾ᵀu⁽ᵏ⁾ are
// reconstructed from the 2s moment values μ_l = rᵀ(M⁻¹A)ˡu (a Hankel fill)
// instead of being measured directly — mathematically equivalent, but with
// different rounding behaviour (paper §3.2, final paragraph). The basis is
// monomial by construction; Options.Basis is ignored.
func SPCGMon(a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	return run(spcgMon, a, m, b, opts)
}

func spcg(c *ctx, b []float64, opts Options) ([]float64, error) {
	return runSStep(c, b, opts, false)
}

func spcgMon(c *ctx, b []float64, opts Options) ([]float64, error) {
	opts.Basis = 0 // monomial by construction
	return runSStep(c, b, opts, true)
}

// runSStep is the shared iteration of SPCG (momentForm=false) and sPCGmon
// (momentForm=true).
func runSStep(c *ctx, b []float64, opts Options, momentForm bool) ([]float64, error) {
	n, s, stats := c.n, opts.S, c.stats
	params, err := resolveBasis(c.a, c.m, &opts)
	if err != nil {
		return nil, err
	}
	x := c.initialGuess(opts)

	// State across outer iterations.
	r := make([]float64, n)
	u := make([]float64, n)
	scratch := make([]float64, n)
	S := vec.NewBlock(n, s+1)
	U := vec.NewBlock(n, s)
	P := vec.NewBlock(n, s)
	AP := vec.NewBlock(n, s)
	pNew := vec.NewBlock(n, s)  // double buffer: AddMul may not alias dst with x
	apNew := vec.NewBlock(n, s) //
	sb := vec.NewBlock(n, s)    // S·B scratch
	var wPrev *dense.Mat        // W⁽ᵏ⁻¹⁾ for the B⁽ᵏ⁾ system

	// B (change of basis): AU⁽ᵏ⁾ = S⁽ᵏ⁾·B, (s+1)×s.
	bMat := params.ChangeOfBasis(s + 1)

	c.residual(r, b, x)

	var ck *checker
	maxOuter := (opts.MaxIterations + s - 1) / s
	haveHistory := false // P⁽ᵏ⁻¹⁾/AP⁽ᵏ⁻¹⁾ valid (false at k=0 and after restarts)
	bestVal := math.Inf(1)
	// truncated holds the W⁽ᵏ⁾ breakdown of a block that took only a leading
	// part of its basis (see leadingSolve); the run ends at the next check
	// unless that check converges.
	var truncated error

	// Fault detection/recovery (opt-in). Only (x, r) need checkpointing: a
	// rollback drops the search-direction history exactly like a regression
	// restart, and the block loop rebuilds everything else from r.
	g := newGuard(c, opts, b)
	if g != nil {
		g.checkpoint(x, r, nil, 0)
	}
	// recoverState rolls back to the last checkpoint and restarts the block
	// sequence from it; false means recovery is off, unavailable or spent.
	recoverState := func() bool {
		if !g.restore(x, r, nil, nil) {
			return false
		}
		haveHistory = false
		bestVal = math.Inf(1)
		truncated = nil
		return true
	}

	for k := 0; k <= maxOuter; k++ {
		if c.cancelled() {
			return finishCancelled(c, b, x, opts)
		}
		// u⁽ᵏ⁾ = M⁻¹r⁽ᵏ⁾ (needed for both the criterion and the MPK).
		c.applyM(u, r)

		// Convergence check at the block boundary (every s steps, paper §5.2).
		rho, rr := c.boundary(r, u, opts.Criterion)
		if !finite(rho, rr) || rho < 0 {
			if recoverState() {
				continue
			}
			stats.Breakdown = fmt.Errorf("%w: rᵀM⁻¹r = %v at outer iteration %d", ErrBreakdown, rho, k)
			break
		}
		var critVal float64
		switch opts.Criterion {
		case TrueResidual2Norm:
			critVal = c.trueResidualNorm(b, x, scratch)
		case RecursiveResidual2Norm:
			critVal = math.Sqrt(rr) // fused into the Gram allreduce below
		case RecursiveResidualMNorm:
			critVal = math.Sqrt(rho) // free: rᵀu is part of the Gram
		}
		if ck == nil {
			ck = newChecker(opts, critVal, stats)
		}
		if ck.done(critVal) {
			stats.Converged = true
			break
		}
		if truncated != nil {
			stats.Breakdown = truncated
			break
		}
		if k == maxOuter || k*s >= opts.MaxIterations {
			break
		}
		// Detection probe at the block boundary (every DetectEvery outer
		// iterations): corruption rolls back, a clean probe may checkpoint.
		if k > 0 && g.due(k) {
			if g.corrupted(x, r, scratch) {
				if !recoverState() {
					stats.Breakdown = errRollbackBudget(g.maxRollbacks)
					break
				}
				continue
			}
			g.checkpoint(x, r, nil, 0)
		}
		// Regression restart: s-step methods can bounce back up after a
		// deep dip when the block basis degenerates near the attainable-
		// accuracy floor (see DESIGN.md). Dropping the search-direction
		// history restarts the block sequence from the current residual —
		// CG-rate convergence resumes as long as the target is above the
		// floor. Costs nothing in communication.
		if critVal < bestVal {
			bestVal = critVal
		} else if critVal > 4*bestVal {
			haveHistory = false
			bestVal = critVal
			stats.Restarts++
		}

		// Basis generation: S⁽ᵏ⁾ spans K_{s+1}(AM⁻¹, r), U⁽ᵏ⁾ = M⁻¹S(:,0:s−1).
		if err := mpk.Compute(mpkOp{c}, mpkPrec{c}, params, r, u, S, U); err != nil {
			if recoverState() {
				continue
			}
			stats.Breakdown = fmt.Errorf("%w: matrix powers kernel: %v", ErrBreakdown, err)
			break
		}

		// Scalar Work: one fused global reduction.
		var w, cMat *dense.Mat // W⁽ᵏ⁾ = P⁽ᵏ⁾ᵀAU⁽ᵏ⁾ ; C = P⁽ᵏ⁻¹⁾ᵀAU⁽ᵏ⁾
		var mVec []float64     // m⁽ᵏ⁾ = R⁽ᵏ⁾ᵀu⁽ᵏ⁾
		useHist := haveHistory
		var red []float64 // the reduction's payload
		if momentForm {
			// sPCGmon: 2s moments + (substituted) fused Gram for C.
			red = make([]float64, 2*s)
			for l := 0; l < s; l++ {
				red[l] = c.localDot(r, U.Col(l))
			}
			for l := s; l < 2*s; l++ {
				red[l] = c.localDot(S.Col(l-s+1), U.Col(s-1))
			}
			if useHist {
				// C = P⁽ᵏ⁻¹⁾ᵀAU⁽ᵏ⁾ = (AP⁽ᵏ⁻¹⁾)ᵀU⁽ᵏ⁾ fused into the same
				// allreduce (documented substitution for the 1989 moment
				// recurrence; see DESIGN.md).
				red = append(red, c.gram(AP, U)...)
			}
		} else {
			// sPCG: G1 = U⁽ᵏ⁾ᵀS⁽ᵏ⁾ and (k>0) G2 = P⁽ᵏ⁻¹⁾ᵀS⁽ᵏ⁾, fused.
			red = c.gram(U, S)
			if useHist {
				red = append(red, c.gram(P, S)...)
			}
		}
		payload := len(red)
		if opts.Criterion == RecursiveResidual2Norm {
			payload++ // the fused ‖r‖² value (rᵀu is already in the Gram/moments)
		}
		red = c.reduce(payload, red...)
		if momentForm {
			// Hankel fill: (UᵀAU)[i][j] = μ_{i+j+1}, m[j] = μ_j.
			mu := red[:2*s]
			w = dense.NewMat(s, s)
			for i := 0; i < s; i++ {
				for j := 0; j < s; j++ {
					w.Set(i, j, mu[i+j+1])
				}
			}
			mVec = append([]float64(nil), mu[:s]...)
			if useHist {
				cMat = dense.FromRowMajor(s, s, red[2*s:])
			}
		} else {
			g1 := dense.FromRowMajor(s, s+1, red[:s*(s+1)])
			// m⁽ᵏ⁾ = R⁽ᵏ⁾ᵀu⁽ᵏ⁾ = first row of G1 (= uᵀS_j by symmetry of M⁻¹).
			mVec = make([]float64, s)
			for j := 0; j < s; j++ {
				mVec[j] = g1.At(0, j)
			}
			// UᵀAU = G1·B ; C = P⁽ᵏ⁻¹⁾ᵀAU = G2·B.
			w = dense.MatMul(g1, bMat)
			if useHist {
				cMat = dense.MatMul(dense.FromRowMajor(s, s+1, red[s*(s+1):]), bMat)
			}
		}

		// B⁽ᵏ⁾ from A-orthogonality: W⁽ᵏ⁻¹⁾·B⁽ᵏ⁾ = −C⁽ᵏ⁾. A singular
		// W⁽ᵏ⁻¹⁾ means the s-step basis has degenerated — reported as a
		// breakdown, the condition behind the paper's Table 2 hyphens.
		// (A variant study with rank-revealing pseudo-inverse solves, a
		// fully expanded W recurrence, and an exact-Galerkin right-hand
		// side was performed during development; all were *less* robust
		// than this paper-faithful form, whose two-term coupling retains
		// more of CG's finite-precision self-correction. See DESIGN.md.)
		// Scalar Work phase span: the dense s×s factorizations and solves.
		// Error exits below drop the span (the run is ending anyway).
		tScalar := c.obs.Begin()
		var bk *dense.Mat
		if useHist {
			rhs := cMat.Clone()
			rhs.Scale(-1)
			f, ferr := dense.LUFactor(wPrev)
			if ferr != nil {
				if recoverState() {
					continue
				}
				stats.Breakdown = fmt.Errorf("%w: W⁽ᵏ⁻¹⁾ singular at outer iteration %d: %v", ErrBreakdown, k, ferr)
				break
			}
			if serr := f.SolveMat(rhs); serr != nil {
				if recoverState() {
					continue
				}
				stats.Breakdown = fmt.Errorf("%w: %v", ErrBreakdown, serr)
				break
			}
			bk = rhs
			// W⁽ᵏ⁾ = U⁽ᵏ⁾ᵀAU⁽ᵏ⁾ + B⁽ᵏ⁾ᵀ·C⁽ᵏ⁾ (derivation in DESIGN.md).
			w.AddMat(1, dense.MatMul(bk.T(), cMat))
		}
		w.Symmetrize()

		// a⁽ᵏ⁾ from W⁽ᵏ⁾·a⁽ᵏ⁾ = m⁽ᵏ⁾.
		aVec, aerr := dense.SolveSPD(w, mVec)
		if aerr != nil {
			if recoverState() {
				continue
			}
			werr := fmt.Errorf("%w: W⁽ᵏ⁾ system at outer iteration %d: %v", ErrBreakdown, k, aerr)
			// Lucky convergence: with a near-exact preconditioner the basis
			// is numerically rank-deficient, and the step along its
			// independent leading columns may already reach the tolerance.
			if aVec = leadingSolve(w, mVec); aVec == nil {
				stats.Breakdown = werr
				break
			}
			truncated = werr
		}
		if !finite(aVec...) {
			if recoverState() {
				continue
			}
			stats.Breakdown = fmt.Errorf("%w: non-finite a⁽ᵏ⁾ at outer iteration %d", ErrBreakdown, k)
			break
		}
		c.obs.End(obs.PhaseScalarWork, tScalar)

		// Block updates.
		if !useHist {
			P.CopyFrom(U)
			c.blockMul(AP, S, bMat.Data) // AP⁽⁰⁾ = S·B
		} else {
			c.blockAddMul(pNew, U, P, bk.Data) // P⁽ᵏ⁾ = U + P⁽ᵏ⁻¹⁾·B⁽ᵏ⁾
			P, pNew = pNew, P
			c.blockMul(sb, S, bMat.Data)
			c.blockAddMul(apNew, sb, AP, bk.Data) // AP⁽ᵏ⁾ = S·B + AP⁽ᵏ⁻¹⁾·B⁽ᵏ⁾
			AP, apNew = apNew, AP
		}
		c.blockVec(c.k.addTo, x, P, aVec)    // x += P·a
		c.blockVec(c.k.subFrom, r, AP, aVec) // r −= AP·a
		c.inj.CorruptVector(r)

		if opts.ResidualReplacement && shouldReplaceResidual(c, b, x, r, scratch) {
			stats.ResidualReplacements++
		}

		wPrev = w
		haveHistory = true
		stats.OuterIterations = k + 1
		stats.Iterations = (k + 1) * s
		// A diverged residual surfaces as a non-finite rᵀu at the next
		// boundary: a reduced value, so every rank takes the same branch.
	}
	return finishRun(c, b, x, opts), nil
}

// leadingSolve solves the leading j×j block of w·a = m for the largest j
// whose block is Cholesky-SPD with condition at most 1e10; a's trailing
// coefficients stay zero. Nil when no leading block qualifies.
func leadingSolve(w *dense.Mat, m []float64) []float64 {
	for j := w.R; j >= 1; j-- {
		lead := dense.NewMat(j, j)
		for i := 0; i < j; i++ {
			copy(lead.Data[i*j:(i+1)*j], w.Data[i*w.C:i*w.C+j])
		}
		ch, err := dense.Cholesky(lead)
		if err != nil || dense.Cond2SPD(lead) > 1e10 {
			continue
		}
		a := make([]float64, w.R)
		copy(a, m[:j])
		if ch.Solve(a[:j]) == nil {
			return a
		}
	}
	return nil
}

// shouldReplaceResidual implements the residual-replacement extension: when
// the recursive residual has drifted from the true residual by more than a
// √ε factor of its own size, replace it (Carson & Demmel 2014 use a finer
// bound; the √ε heuristic captures the mechanism). Charged: one SpMV + one
// allreduce per outer iteration when enabled.
func shouldReplaceResidual(c *ctx, b, x, r, scratch []float64) bool {
	c.residual(scratch, b, x) // true residual
	diff := 0.0
	norm := 0.0
	for i := range scratch {
		d := scratch[i] - r[i]
		diff += d * d
		norm += scratch[i] * scratch[i]
	}
	c.tr.ReduceLocal(4*float64(c.n), 32*float64(c.n))
	v := c.reduce(2, diff, norm)
	if v[0] > 1e-16*v[1] && v[1] > 0 {
		copy(r, scratch)
		return true
	}
	return false
}

package solver

import (
	"errors"
	"fmt"

	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/spmd"
)

// SPMDResult reports a solve run on spmd ranks.
type SPMDResult struct {
	X          []float64 // assembled global solution
	Iterations int
	Converged  bool
	// Allreduces counts the collectives (Rank.Allreduce calls) one rank
	// executed; it is the same on every rank. For PCG it equals the modeled
	// Stats.Allreduces. The s-step methods execute one more per outer
	// iteration, plus one for the final check: the model fuses the
	// block-boundary values (rᵀM⁻¹r, and ‖r‖² for the recursive 2-norm
	// criterion) into the outer iteration's Gram reduction, but a rank
	// reduces them on their own because the convergence check branches on
	// them first.
	Allreduces int
}

// rankBodies are the methods that run on spmd ranks; every branch they take
// reads reduced values only.
var rankBodies = map[string]body{"pcg": pcg, "spcg": spcg, "capcg": capcg}

// Distributed solves A·x = b with the named method ("pcg", "spcg" or
// "capcg") on p spmd ranks: goroutines that each own a
// nnz-balanced block of rows, exchange halos for every SpMV and sum every
// reduction with a real allreduce. Every rank runs the same solver code as
// the modeled solve, with the rank-local block of the Jacobi
// preconditioner. Options honoured: S, BasisParams (required by the s-step
// methods; degree ≥ S), Tol, MaxIterations and Criterion. The rest (cost
// model, tracing, faults, cancellation, initial guess) belong to the
// modeled solve and are ignored.
func Distributed(method string, a *sparse.CSR, b []float64, p int, opts Options) (*SPMDResult, error) {
	iterate, ok := rankBodies[method]
	if !ok {
		return nil, fmt.Errorf("solver: method %q does not run on spmd ranks", method)
	}
	if a == nil {
		return nil, fmt.Errorf("%w: nil matrix", ErrDimension)
	}
	n := a.Dim()
	if len(b) != n {
		return nil, fmt.Errorf("%w: len(b)=%d, n=%d", ErrDimension, len(b), n)
	}
	opts = Options{S: opts.S, BasisParams: opts.BasisParams, Tol: opts.Tol, MaxIterations: opts.MaxIterations, Criterion: opts.Criterion}
	if method != "pcg" {
		if opts.S < 1 {
			return nil, fmt.Errorf("%w: s = %d < 1", ErrDimension, opts.S)
		}
		if opts.BasisParams == nil {
			return nil, errors.New("solver: s-step methods on spmd ranks need explicit basis parameters")
		}
		if _, err := resolveBasis(a, nil, &opts); err != nil {
			return nil, err
		}
	}
	opts = opts.withDefaults()
	jac, err := precond.NewJacobi(a)
	if err != nil {
		return nil, err
	}
	locals, err := spmd.Distribute(a, p)
	if err != nil {
		return nil, err
	}

	x := make([]float64, n)
	ctxs := make([]*ctx, p)
	errs := make([]error, p)
	if err := spmd.NewWorld(p).RunE(func(rk *spmd.Rank) {
		lm := locals[rk.ID]
		c := newRankCtx(rk, lm, jac.Rows(lm.Lo, lm.Hi))
		xl, err := iterate(c, b[lm.Lo:lm.Hi], opts)
		copy(x[lm.Lo:lm.Hi], xl) // disjoint slices: no post-run race
		ctxs[rk.ID], errs[rk.ID] = c, err
	}); err != nil {
		return nil, err
	}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("solver: spmd rank %d: %w", r, err)
		}
	}
	// SPMD sanity: every rank must have made the same control-flow
	// decisions (they share all reduced scalars).
	st, collectives := ctxs[0].stats, ctxs[0].rank.collectives
	for r, c := range ctxs[1:] {
		if c.stats.Iterations != st.Iterations || c.stats.Converged != st.Converged || c.rank.collectives != collectives {
			return nil, fmt.Errorf("solver: spmd ranks diverged in control flow (rank %d: %d/%v/%d vs rank 0: %d/%v/%d)",
				r+1, c.stats.Iterations, c.stats.Converged, c.rank.collectives, st.Iterations, st.Converged, collectives)
		}
	}
	reportTrueResidual(a, b, x, nil, opts.Tol, st)
	return &SPMDResult{X: x, Iterations: st.Iterations, Converged: st.Converged, Allreduces: collectives}, nil
}

package spmd_test

import (
	"math/rand"
	"testing"

	"spcg/internal/basis"
	"spcg/internal/eig"
	"spcg/internal/precond"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// End-to-end runs of the runtime: the solver package's methods on real
// ranks (solver.Distributed) against their sequential runs.

// The parity tests run one of the solver package's methods on 1–8 ranks and
// check the iteration count, the solution and the number of collectives
// against the sequential solver on the same input.

func TestPCGJacobiMatchesSequential(t *testing.T) {
	// Same iteration count ±1 (reduction order differs slightly); 1 initial
	// + 2 per iteration allreduces.
	checkDistributedMatchesSequential(t, "pcg", 5, 1e-10, 1, 1e-8,
		func(iters int) int { return 1 + 2*iters })
}

func TestSPCGJacobiMatchesSequentialSPCG(t *testing.T) {
	checkDistributedMatchesSequential(t, "spcg", 11, 1e-9, parityS, 1e-7, sStepCollectives)
}

func TestCAPCGJacobiMatchesSequentialCAPCG(t *testing.T) {
	checkDistributedMatchesSequential(t, "capcg", 21, 1e-9, parityS, 1e-7, sStepCollectives)
}

// parityS is the block size of the s-step parity runs.
const parityS = 5

// sStepCollectives is the collective count of an s-step run of iters: one
// Gram reduction and one boundary reduction per outer iteration, plus the
// final boundary check.
func sStepCollectives(iters int) int { return 2*(iters/parityS) + 1 }

// checkDistributedMatchesSequential solves a 16×16 Poisson problem with a
// random right-hand side drawn from seed, sequentially and on 1–8 ranks.
// slack bounds |Δ iterations| against the sequential run, solTol bounds
// ‖x − x_seq‖/‖x_seq‖, and collectives gives the expected rank collective
// count for a run of iters.
func checkDistributedMatchesSequential(t *testing.T, method string, seed int64, tol float64, slack int, solTol float64, collectives func(iters int) int) {
	t.Helper()
	a := sparse.Poisson2D(16, 16)
	n := a.Dim()
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	m, err := precond.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	est, err := eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	params := basis.ChebyshevParams(parityS, est.LambdaMin, est.LambdaMax)
	opts := solver.Options{S: parityS, BasisParams: params, Tol: tol, Criterion: solver.RecursiveResidualMNorm}
	seq, _ := solver.ByName(method)
	xSeq, seqStats, err := seq(a, m, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !seqStats.Converged {
		t.Fatalf("%s: sequential run did not converge: %v", method, seqStats.Breakdown)
	}
	for p := 1; p <= 8; p++ {
		res, err := solver.Distributed(method, a, b, p, opts)
		if err != nil {
			t.Fatalf("%s p=%d: %v", method, p, err)
		}
		if !res.Converged {
			t.Fatalf("%s p=%d: did not converge", method, p)
		}
		if d := res.Iterations - seqStats.Iterations; d < -slack || d > slack {
			t.Fatalf("%s p=%d: %d iterations vs sequential %d", method, p, res.Iterations, seqStats.Iterations)
		}
		diff := make([]float64, n)
		vec.Sub(diff, res.X, xSeq)
		if rel := vec.Norm2(diff) / vec.Norm2(xSeq); rel > solTol {
			t.Fatalf("%s p=%d: solutions differ by %v", method, p, rel)
		}
		if want := collectives(res.Iterations); res.Allreduces != want {
			t.Fatalf("%s p=%d: %d collectives for %d iterations, want %d", method, p, res.Allreduces, res.Iterations, want)
		}
	}
}

func TestPCGJacobiDeterministicAcrossRuns(t *testing.T) {
	// Rank-ordered reduction makes the parallel solve bitwise reproducible.
	a := sparse.VarCoeff2D(14, 14, 2, 9)
	b := make([]float64, a.Dim())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	opts := solver.Options{Tol: 1e-9, Criterion: solver.RecursiveResidualMNorm}
	r1, err := solver.Distributed("pcg", a, b, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := solver.Distributed("pcg", a, b, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iterations != r2.Iterations {
		t.Fatal("iteration counts differ across runs")
	}
	for i := range r1.X {
		if r1.X[i] != r2.X[i] {
			t.Fatalf("solutions differ bitwise at %d", i)
		}
	}
}

func TestPCGJacobiValidation(t *testing.T) {
	a := sparse.Poisson1D(10)
	opts := solver.Options{Tol: 1e-9}
	if _, err := solver.Distributed("pcg", a, make([]float64, 3), 2, opts); err == nil {
		t.Fatal("bad rhs accepted")
	}
	coo := sparse.NewCOO(4)
	for i := 0; i < 4; i++ {
		coo.Add(i, i, -1)
		if i > 0 {
			coo.AddSym(i, i-1, 0.1)
		}
	}
	if _, err := solver.Distributed("pcg", coo.ToCSR(), make([]float64, 4), 2, opts); err == nil {
		t.Fatal("negative diagonal accepted")
	}
	if _, err := solver.Distributed("pipelined", a, make([]float64, 10), 2, opts); err == nil {
		t.Fatal("method without a rank body accepted")
	}
}

func TestSPCGJacobiValidation(t *testing.T) {
	a := sparse.Poisson1D(20)
	params := basis.MonomialParams(3)
	run := func(rhs, s int, params *basis.Params) error {
		_, err := solver.Distributed("spcg", a, make([]float64, rhs), 2, solver.Options{S: s, BasisParams: params, Tol: 1e-9})
		return err
	}
	if run(5, 3, params) == nil {
		t.Fatal("bad rhs accepted")
	}
	if run(20, 0, params) == nil {
		t.Fatal("s=0 accepted")
	}
	if run(20, 5, params) == nil {
		t.Fatal("degree < s accepted")
	}
	if run(20, 3, nil) == nil {
		t.Fatal("nil params accepted")
	}
}

func TestCAPCGJacobiValidation(t *testing.T) {
	a := sparse.Poisson1D(20)
	params := basis.MonomialParams(3)
	if _, err := solver.Distributed("capcg", a, make([]float64, 5), 2, solver.Options{S: 3, BasisParams: params, Tol: 1e-9}); err == nil {
		t.Fatal("bad rhs accepted")
	}
	if _, err := solver.Distributed("capcg", a, make([]float64, 20), 2, solver.Options{S: 5, BasisParams: params, Tol: 1e-9}); err == nil {
		t.Fatal("degree < s accepted")
	}
}

package spcg_test

import (
	"math"
	"math/rand"
	"testing"

	"spcg"
	"spcg/internal/basis"
	"spcg/internal/solver"
	"spcg/internal/vec"
)

// TestSolverBitwisePin pins the iteration count and the exact bits of ‖x‖₂
// of the s-step solvers on a small Poisson 3D problem. The values were
// recorded with the portable Go kernels; the AVX2 micro-kernels selected at
// init must reproduce them bit for bit. n = 13³ leaves a row tail (n mod 4 =
// 1), s = 10 gives 10×11 Gram blocks with edges in both directions, and two
// pool workers make the pooled kernels split the rows at a fixed boundary.
// amd64 only: other architectures may fuse multiply-adds in the Go kernels.
//
// The spmd ranks run the sequential solvers' code with the serial entries of
// the same kernels, so on 2 ranks DistributedSPCG and distributed CA-PCG
// match their sequential runs with 2 workers bit for bit. DistributedSPCG's
// earlier per-column Axpy block updates associated the sums differently and
// gave bits 0x4025a1664416a7c5 at the same 60 iterations.
func TestSolverBitwisePin(t *testing.T) {
	prev := vec.SetMaxWorkers(2)
	defer vec.SetMaxWorkers(prev)

	const s = 10
	a := spcg.Poisson3D(13, 13, 13)
	n := a.Dim()
	rng := rand.New(rand.NewSource(12))
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	m, err := spcg.NewJacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	est, err := spcg.EstimateSpectrum(a, m.Apply, 2*s)
	if err != nil {
		t.Fatal(err)
	}
	opts := spcg.Options{S: s, Basis: spcg.Chebyshev, Spectrum: est, Tol: 1e-9, Criterion: spcg.RecursiveResidualMNorm}

	pins := []struct {
		name  string
		iters int
		bits  uint64
	}{
		{"spcg", 60, 0x4025a1664416a7c2},
		{"capcg", 60, 0x4025a1664416a7c4},
		{"capcg3", 60, 0x4025a1664416a7c9},
		{"spmd.spcg", 60, 0x4025a1664416a7c2},
		{"spmd.capcg", 60, 0x4025a1664416a7c4},
	}
	for _, p := range pins {
		var x []float64
		var iters int
		switch p.name {
		case "spmd.spcg":
			res, err := spcg.DistributedSPCG(a, b, 2, s, basis.ChebyshevParams(s, est.LambdaMin, est.LambdaMax), 1e-9, 0)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			x, iters = res.X, res.Iterations
		case "spmd.capcg":
			res, err := solver.Distributed("capcg", a, b, 2, solver.Options{S: s, BasisParams: basis.ChebyshevParams(s, est.LambdaMin, est.LambdaMax), Tol: 1e-9, Criterion: solver.RecursiveResidualMNorm})
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			x, iters = res.X, res.Iterations
		default:
			solve := map[string]func(*spcg.Matrix, spcg.Preconditioner, []float64, spcg.Options) ([]float64, *spcg.Stats, error){
				"spcg": spcg.SPCG, "capcg": spcg.CAPCG, "capcg3": spcg.CAPCG3,
			}[p.name]
			var st *spcg.Stats
			if x, st, err = solve(a, m, b, opts); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			iters = st.Iterations
		}
		bits := math.Float64bits(vec.Norm2(x))
		t.Logf("%s: iterations %d, ‖x‖₂ bits %#x", p.name, iters, bits)
		if iters != p.iters || bits != p.bits {
			t.Errorf("%s: iterations %d, ‖x‖₂ bits %#x; pinned %d, %#x", p.name, iters, bits, p.iters, p.bits)
		}
	}
}

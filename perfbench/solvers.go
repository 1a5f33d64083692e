package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"spcg"
	"spcg/internal/basis"
	"spcg/internal/eig"
	"spcg/internal/pool"
	"spcg/internal/precond"
	"spcg/internal/service"
	"spcg/internal/solver"
	"spcg/internal/sparse"
	"spcg/internal/vec"
)

// Output checks. Every solve, library or served, must report convergence, a
// true relative residual ‖b−Ax‖₂/‖b‖₂ of at most residualBound, and a
// solution norm within xnormTol (relative) of a reference computed once per
// matrix by a library PCG solve to referenceTol.
const (
	residualBound = 1e-8
	xnormTol      = 1e-6
	referenceTol  = 1e-12
)

// libSolvers are the Table 3 methods, called through the facade.
var libSolvers = map[string]func(*spcg.Matrix, spcg.Preconditioner, []float64, spcg.Options) ([]float64, *spcg.Stats, error){
	"pcg":    spcg.PCG,
	"spcg":   spcg.SPCG,
	"capcg":  spcg.CAPCG,
	"capcg3": spcg.CAPCG3,
}

// solverMethods is the order a solver round runs in: the Table 3 set, then
// DistributedPCG and DistributedSPCG on spmdRanks goroutine ranks.
var solverMethods = []string{"pcg", "spcg", "capcg", "capcg3", "spmd.pcg", "spmd.spcg"}

const spmdRanks = 2

// phaseNames are the timed solver phases reported per method.
var phaseNames = []string{"spmv", "prec", "basis", "gram", "block_update", "vector", "scalar_work"}

// problem is one linear system with everything a solve needs already built.
type problem struct {
	name string
	a    *sparse.CSR
	m    spcg.Preconditioner
	b    []float64
	// opts carries S, basis, spectrum, tolerance and criterion.
	opts spcg.Options
	// spmdParams is the Chebyshev basis from the Jacobi spectrum, which
	// DistributedSPCG needs (the spmd runtime is Jacobi-only).
	spmdParams *basis.Params
	ref        float64 // reference ‖x‖₂
}

// newProblem builds the preconditioner and spectrum estimate for a, the
// same set-up spcgd does once per matrix.
func newProblem(name string, a *sparse.CSR, precSpec string, s int, crit solver.Criterion, b []float64) (*problem, error) {
	spec, err := precond.Parse(precSpec)
	if err != nil {
		return nil, err
	}
	m, err := spec.Build(a)
	if err != nil {
		return nil, err
	}
	est, err := spcg.EstimateSpectrum(a, m.Apply, spectrumIters(s))
	if err != nil {
		return nil, fmt.Errorf("%s: spectrum: %w", name, err)
	}
	jac := est
	if spec.Canonical() != "jacobi" {
		jm, err := spcg.NewJacobi(a)
		if err != nil {
			return nil, err
		}
		if jac, err = spcg.EstimateSpectrum(a, jm.Apply, spectrumIters(s)); err != nil {
			return nil, fmt.Errorf("%s: jacobi spectrum: %w", name, err)
		}
	}
	return &problem{
		name: name, a: a, m: m, b: b,
		opts:       spcg.Options{S: s, Basis: spcg.Chebyshev, Spectrum: est, Tol: 1e-9, Criterion: crit},
		spmdParams: basis.ChebyshevParams(s, jac.LambdaMin, jac.LambdaMax),
	}, nil
}

// spectrumIters matches spcgd's Lanczos length for the spectrum estimate.
func spectrumIters(s int) int { return max(20, 2*s) }

func ones(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b
}

// buildMatrix builds a matrix from the spcgd generator names the workloads
// send ("poisson2d:N", "poisson3d:N", "hubgraph:N[:SEED]",
// "varcoeff3d:N:CONTRAST[:SEED]"), with the generator parameters the
// service uses.
func buildMatrix(name string) (*sparse.CSR, error) {
	parts := strings.Split(name, ":")
	if len(parts) < 2 {
		return nil, fmt.Errorf("matrix %q: need a size", name)
	}
	ints := make([]int64, len(parts))
	for i := 1; i < len(parts); i++ {
		if parts[0] == "varcoeff3d" && i == 2 {
			continue // the contrast is a float
		}
		v, err := strconv.ParseInt(parts[i], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("matrix %q: bad argument %q", name, parts[i])
		}
		ints[i] = v
	}
	seed := func(i int) int64 {
		if i < len(parts) {
			return ints[i]
		}
		return 1
	}
	n := int(ints[1])
	switch parts[0] {
	case "poisson2d":
		return sparse.Poisson2D(n, n), nil
	case "poisson3d":
		return sparse.Poisson3D(n, n, n), nil
	case "hubgraph":
		return sparse.HubGraphLaplacian(n, 4, 192, 48, 0.5, seed(2)), nil
	case "varcoeff3d":
		if len(parts) < 3 {
			return nil, fmt.Errorf("matrix %q: need a contrast", name)
		}
		contrast, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("matrix %q: bad contrast %q", name, parts[2])
		}
		return sparse.VarCoeff3D(n, n, n, contrast, seed(3)), nil
	}
	return nil, fmt.Errorf("matrix %q: unknown generator", name)
}

// referenceXNorm solves A·x = b with library PCG (Jacobi) to referenceTol
// in the true residual and returns ‖x‖₂.
func referenceXNorm(a *sparse.CSR, b []float64) (float64, error) {
	m, err := spcg.NewJacobi(a)
	if err != nil {
		return 0, err
	}
	x, st, err := spcg.PCG(a, m, b, spcg.Options{Tol: referenceTol, Criterion: spcg.TrueResidual2Norm, MaxIterations: 100000})
	if err != nil {
		return 0, err
	}
	if !st.Converged {
		return 0, fmt.Errorf("reference PCG did not reach %.0e (relative %.3g)", referenceTol, st.TrueRelResidual)
	}
	return vec.Norm2(x), nil
}

// checkSolution applies the output checks to one solve.
func checkSolution(converged bool, trueRel, xnorm, ref float64) error {
	switch {
	case !converged:
		return errors.New("did not converge")
	case !(trueRel <= residualBound):
		return fmt.Errorf("true relative residual %.3g above %.0e", trueRel, residualBound)
	case !(math.Abs(xnorm-ref) <= xnormTol*ref):
		return fmt.Errorf("x_norm %.12g off reference %.12g by more than %.0e", xnorm, ref, xnormTol)
	}
	return nil
}

func trueRelResidual(a *sparse.CSR, x, b []float64) float64 {
	if len(x) != len(b) {
		return math.Inf(1)
	}
	r := make([]float64, len(b))
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return vec.Norm2(r) / vec.Norm2(b)
}

// outcome is one checked solve.
type outcome struct {
	method     string
	dur        time.Duration
	iters      int
	allreduces int
	trueRel    float64
	phases     map[string]float64 // seconds per timed phase (traced only)
	dispatches int64              // kernel dispatches counted by the trace
	poolRuns   uint64             // pooled + inline kernel dispatches (pool.ReadStats)
	poolInline uint64
	err        error
}

// solve runs one method on p and checks its answer. A traced solve records
// the solver's phases and the kernel engine's dispatches.
func (p *problem) solve(method string, traced bool) outcome {
	o := outcome{method: method}
	var (
		x         []float64
		converged bool
		err       error
	)
	before := pool.ReadStats()
	t0 := time.Now()
	switch method {
	case "spmd.pcg", "spmd.spcg":
		var res *spcg.SPMDResult
		if method == "spmd.pcg" {
			res, err = spcg.DistributedPCG(p.a, p.b, spmdRanks, p.opts.Tol, 0)
		} else {
			res, err = spcg.DistributedSPCG(p.a, p.b, spmdRanks, p.opts.S, p.spmdParams, p.opts.Tol, 0)
		}
		o.dur = time.Since(t0)
		if res != nil {
			x, converged, o.iters, o.allreduces = res.X, res.Converged, res.Iterations, res.Allreduces
		}
	default:
		opts := p.opts
		if traced {
			opts.Trace = spcg.NewPhaseTracer(0)
			pool.SetTracer(opts.Trace)
		}
		var st *spcg.Stats
		x, st, err = libSolvers[method](p.a, p.m, p.b, opts)
		o.dur = time.Since(t0)
		if traced {
			pool.SetTracer(nil)
		}
		if st != nil {
			converged, o.iters, o.allreduces = st.Converged, st.Iterations, st.Allreduces
			if traced {
				o.phases = map[string]float64{}
				for _, ph := range st.Phases {
					o.phases[ph.Phase] = ph.Seconds
					if ph.Phase == "dispatch" {
						o.dispatches = ph.Count
					}
				}
			}
		}
	}
	after := pool.ReadStats()
	o.poolRuns = (after.Dispatches - before.Dispatches) + (after.InlineRuns - before.InlineRuns)
	o.poolInline = after.InlineRuns - before.InlineRuns
	o.trueRel = trueRelResidual(p.a, x, p.b)
	if err != nil {
		o.err = fmt.Errorf("%s on %s: %w", method, p.name, err)
	} else if cerr := checkSolution(converged, o.trueRel, vec.Norm2(x), p.ref); cerr != nil {
		o.err = fmt.Errorf("%s on %s: %w", method, p.name, cerr)
	}
	return o
}

// solverLayers reduces traced outcomes to the solver.*, phase.*, spmd.* and
// pool.* metrics: medians over the outcomes of each method.
func solverLayers(layers map[string]float64, outs []outcome) {
	by := map[string][]outcome{}
	for _, o := range outs {
		by[o.method] = append(by[o.method], o)
	}
	pick := func(os []outcome, f func(outcome) float64) float64 {
		v := make([]float64, len(os))
		for i, o := range os {
			v[i] = f(o)
		}
		return median(v)
	}
	pcgIters := pick(by["pcg"], func(o outcome) float64 { return float64(o.iters) })
	var runs, inline, iters float64
	for _, m := range solverMethods {
		os := by[m]
		if len(os) == 0 {
			continue
		}
		solveMS := pick(os, func(o outcome) float64 { return ms(o.dur) })
		it := pick(os, func(o outcome) float64 { return float64(o.iters) })
		if name, isSPMD := strings.CutPrefix(m, "spmd."); isSPMD {
			layers["spmd."+name+".solve_ms"] = solveMS
			layers["spmd."+name+".iterations"] = it
			continue
		}
		layers["solver."+m+".solve_ms"] = solveMS
		layers["solver."+m+".iterations"] = it
		layers["solver."+m+".iter_ratio_vs_pcg"] = it / pcgIters
		layers["solver."+m+".allreduces"] = pick(os, func(o outcome) float64 { return float64(o.allreduces) })
		layers["solver."+m+".true_rel_residual"] = pick(os, func(o outcome) float64 { return o.trueRel })
		for _, ph := range phaseNames {
			layers["phase."+m+"."+ph+"_ms"] = pick(os, func(o outcome) float64 { return o.phases[ph] * 1000 })
		}
		layers["phase."+m+".dispatches"] = pick(os, func(o outcome) float64 { return float64(o.dispatches) })
		for _, o := range os {
			runs += float64(o.poolRuns)
			inline += float64(o.poolInline)
			iters += float64(o.iters)
		}
	}
	layers["pool.dispatches_per_iter"] = runs / math.Max(1, iters)
	layers["pool.inline_frac"] = inline / math.Max(1, runs)
}

// phaseGap is the part of a traced library solve its timed phases do not
// fit into: their sum beyond the solve's wall time, which can only come
// from phases overlapping each other.
func phaseGap(o outcome) time.Duration {
	var sum float64
	for _, s := range o.phases {
		sum += s
	}
	over := time.Duration(sum*1e9) - o.dur
	return max(over, 0)
}

// kernelLayers times the three kernels that dominate an s-step iteration on
// a — SpMV, the fused Gram matrix and the fused block update — and reports
// achieved GB/s with bytes computed from the array sizes (not measured
// traffic), plus each kernel's flops per computed byte.
func kernelLayers(layers map[string]float64, a *sparse.CSR, s int) {
	n, nnz := a.N, a.NNZ()
	const word = 8
	intBytes := float64(strconv.IntSize / 8)
	x, y := ones(n), make([]float64, n)
	p, q := vec.NewBlock(n, s+1), vec.NewBlock(n, s+1)
	dst := vec.NewBlock(n, s)
	for j := 0; j <= s; j++ {
		copy(p.Col(j), x)
		copy(q.Col(j), x)
	}
	coef := make([]float64, (s+1)*s)
	for i := range coef {
		coef[i] = 1e-3
	}
	type kernel struct {
		name         string
		bytes, flops float64
		run          func()
	}
	kernels := []kernel{
		{"spmv", float64(nnz)*(word+intBytes) + float64(n+1)*intBytes + 2*float64(n)*word, 2 * float64(nnz),
			func() { a.MulVecPar(y, x) }},
		{"gram", 2 * float64((s+1)*n) * word, 2 * float64(n*(s+1)*(s+1)),
			func() { vec.GramFused(p, q) }},
		{"block_update", float64((s+1)*n)*word + 2*float64(s*n)*word, 2 * float64(n*(s+1)*s),
			func() { vec.AddMulFused(dst, dst, p, coef) }},
	}
	for _, k := range kernels {
		reps := 1
		for {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				k.run()
			}
			if time.Since(t0) > 20*time.Millisecond {
				break
			}
			reps *= 2
		}
		rates := make([]float64, 5)
		for r := range rates {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				k.run()
			}
			rates[r] = k.bytes * float64(reps) / time.Since(t0).Seconds() / 1e9
		}
		sort.Float64s(rates)
		layers["kernel."+k.name+"_gbs"] = rates[len(rates)/2]
		layers["kernel."+k.name+".flops_per_byte"] = k.flops / k.bytes
	}
}

// setupLayers times spcgd's per-matrix set-up steps through their public
// calls on freshly built matrices: generator, fingerprint, format probe,
// the request's preconditioner and the Lanczos spectrum estimate. Medians
// over the requests.
func setupLayers(layers map[string]float64, reqs []service.SolveRequest, s int) error {
	steps := map[string][]float64{}
	timeIt := func(key string, f func()) {
		t0 := time.Now()
		f()
		steps[key] = append(steps[key], ms(time.Since(t0)))
	}
	for _, req := range reqs {
		name := req.Matrix
		spec, err := precond.Parse(req.Precond)
		if err != nil {
			return err
		}
		var a *sparse.CSR
		var m spcg.Preconditioner
		timeIt("matrix_build_ms", func() { a, err = buildMatrix(name) })
		if err != nil {
			return err
		}
		timeIt("fingerprint_ms", func() { _ = a.Fingerprint() })
		timeIt("format_probe_ms", func() { _, _ = sparse.ChooseFormat(a) })
		timeIt("precond_ms", func() { m, err = spec.Build(a) })
		if err != nil {
			return err
		}
		timeIt("spectrum_ms", func() {
			_, err = eig.RitzFromPCG(a, m.Apply, eig.Options{Iterations: spectrumIters(s)})
		})
		if err != nil {
			return fmt.Errorf("%s: spectrum: %w", name, err)
		}
	}
	for k, v := range steps {
		layers["setup."+k] = median(v)
	}
	return nil
}

// workingSetBytes is a's CSR arrays plus the s-step solver's vectors: the
// 2(s+1) basis columns and a handful of length-n work vectors.
func workingSetBytes(a *sparse.CSR, s int) int64 {
	intBytes := int64(strconv.IntSize / 8)
	n, nnz := int64(a.N), int64(a.NNZ())
	return nnz*(8+intBytes) + (n+1)*intBytes + n*8*int64(2*(s+1)+6)
}

package main

import (
	"math/rand"
	"runtime"
	"time"

	"spcg"
	"spcg/internal/service"
)

// solve-large: the paper's Figure 1 problem at n = 48³ ≈ 1.1e5, solved by
// library calls from one caller. See README.md.
const (
	largeMatrix = "poisson3d:48"
	largeS      = 10
	// minRounds is the fewest untraced rounds a run measures, so the
	// median over rounds has a middle.
	minRounds = 3
)

// largeRHS draws the right-hand side from the seed: uniform in [-1, 1).
func largeRHS(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}

// setupLarge builds the matrix, the Jacobi preconditioner and the spectrum
// estimate: the work setup_s times for this workload.
func setupLarge(seed int64) (*problem, error) {
	a, err := buildMatrix(largeMatrix)
	if err != nil {
		return nil, err
	}
	return newProblem(largeMatrix, a, "jacobi", largeS, spcg.RecursiveResidualMNorm, largeRHS(seed, a.N))
}

func runSolveLarge(cfg config) (*report, error) {
	rep := newReport()
	var p *problem
	for i := 0; i < setupReps; i++ {
		p = nil
		runtime.GC()
		t0 := time.Now()
		q, err := setupLarge(cfg.seed)
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
		p = q
	}
	ref, err := referenceXNorm(p.a, p.b)
	if err != nil {
		return nil, err
	}
	p.ref = ref

	rep.props["matrix"] = largeMatrix
	rep.props["n"] = p.a.N
	rep.props["nnz"] = p.a.NNZ()
	rep.props["distinct_matrices"] = 1
	rep.props["seen_before_frac"] = 1.0
	rep.props["coalesced_frac"] = 0.0
	_, llc := cacheSizes()
	rep.props["working_set_bytes"] = workingSetBytes(p.a, largeS)
	rep.props["llc_bytes"] = llc

	// Rounds run every method once, in a fixed order; each untraced round is
	// one measurement window. A traced run alternates untraced and traced
	// rounds so the tracing overhead is measured under the same conditions.
	var traced, plain []outcome
	var tracedRounds, plainRounds []float64
	var allocBytes uint64
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for round := 0; ; round++ {
		isTraced := cfg.trace && round%2 == 1
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		r0 := time.Now()
		var w winStat
		for _, m := range solverMethods {
			o := p.solve(m, isTraced)
			rep.attempted++
			if o.err != nil {
				rep.fail(o.err.Error())
			}
			if isTraced {
				traced = append(traced, o)
				continue
			}
			plain = append(plain, o)
			w.ops++
			if o.err == nil {
				w.latMS = append(w.latMS, ms(o.dur))
			}
		}
		w.wall = time.Since(r0)
		w.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		if isTraced {
			tracedRounds = append(tracedRounds, w.wall.Seconds())
		} else {
			rep.windows = append(rep.windows, w)
			plainRounds = append(plainRounds, w.wall.Seconds())
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		if time.Since(start) >= cfg.seconds && len(plainRounds) >= minRounds && (!cfg.trace || len(tracedRounds) > 0) {
			break
		}
	}
	rep.props["rounds"] = len(plainRounds) + len(tracedRounds)

	if !cfg.trace {
		return rep, nil
	}
	L := rep.layers
	solverLayers(L, traced)
	kernelLayers(L, p.a, largeS)
	if err := setupLayers(L, []service.SolveRequest{{Matrix: largeMatrix, Precond: "jacobi"}}, largeS); err != nil {
		return nil, err
	}
	L["go.alloc_mb_per_solve"] = float64(allocBytes) / 1e6 / float64(len(plain))
	L["trace.overhead_frac"] = median(tracedRounds)/median(plainRounds) - 1

	// Layer accounting: the solve's wall time splits into its timed phases
	// plus unphased solver work; phases summing past the wall time would
	// mean overlapping spans.
	var gap, total float64
	for _, o := range traced {
		if o.phases == nil {
			continue
		}
		gap += phaseGap(o).Seconds()
		total += o.dur.Seconds()
	}
	checkAccounting(rep, gap/total)
	zeroMissing(L, serviceLayerNames)
	zeroMissing(L, gatewayLayerNames)
	return rep, nil
}

package solver

import (
	"fmt"
	"math"

	"spcg/internal/dist"
	"spcg/internal/fault"
	"spcg/internal/obs"
	"spcg/internal/precond"
	"spcg/internal/sparse"
	"spcg/internal/spmd"
	"spcg/internal/vec"
)

// ctx is the execution seam every solver runs through: it performs the
// numerics and simultaneously counts events and charges the distributed
// cost model, so the solvers' measured costs are comparable. Two runtimes
// sit behind it:
//
//   - the modeled context (newCtx) runs on the whole matrix with the pooled
//     kernels; its inner products are already global, so a reduction only
//     charges the collective to the dist cost model;
//   - a rank context (newRankCtx) runs on one spmd rank's block of rows:
//     spmv exchanges halos, every reduction is a real Rank.Allreduce, and
//     the kernels are the serial entries (the rank is one goroutine of P,
//     and the shared pool serializes dispatches).
//
// The solver code is the same for both; see Distributed.
type ctx struct {
	a       *sparse.CSR   // the whole matrix; nil on a rank
	op      sparse.Matrix // hot-path kernels; a unless Options.Operator overrides
	m       precond.Interface
	k       *kernels
	tr      *dist.Tracker
	obs     *obs.Tracer     // nil-safe: phase spans when tracing is enabled
	inj     *fault.Injector // nil-safe: corrupts SpMV outputs when configured
	n       int             // rows this context owns
	stats   *Stats
	f32Gram bool
	cancel  <-chan struct{} // Options.Cancel; nil means never cancelled
	rank    *rankComm       // non-nil on an spmd rank
}

// rankComm links a rank context to the spmd runtime.
type rankComm struct {
	rk          *spmd.Rank
	lm          *spmd.LocalMatrix
	collectives int       // Rank.Allreduce calls (SPMDResult.Allreduces)
	buf         []float64 // the rank's contribution to the current collective
}

// kernels are the length-n kernels a context runs. Both sets run the same
// micro-kernels; the pooled one splits rows over the shared worker pool.
type kernels struct {
	dot     func(a, b []float64) float64
	gram    func(x, y *vec.Block) []float64
	gramVec func(x *vec.Block, v []float64) []float64
	combine func(x *vec.Block, dst, coef []float64) // dst = X·coef
	addTo   func(x *vec.Block, dst, coef []float64) // dst += X·coef
	subFrom func(x *vec.Block, dst, coef []float64) // dst −= X·coef
	addMul  func(dst, y, x *vec.Block, coef []float64)
	mul     func(dst, x *vec.Block, coef []float64)
}

var (
	pooledKernels = kernels{
		dot: vec.ParDot, gram: vec.GramFused, gramVec: vec.GramVecFused,
		combine: (*vec.Block).CombineFused,
		addTo:   func(x *vec.Block, dst, coef []float64) { x.AddScaledFused(dst, 1, coef) },
		subFrom: func(x *vec.Block, dst, coef []float64) { x.AddScaledFused(dst, -1, coef) },
		addMul:  vec.AddMulFused, mul: vec.MulFused,
	}
	serialKernels = kernels{
		dot: vec.Dot, gram: vec.Gram, gramVec: vec.GramVec,
		combine: (*vec.Block).MulVec, addTo: (*vec.Block).MulVecAdd, subFrom: (*vec.Block).MulVecSub,
		addMul: vec.AddMul, mul: vec.Mul,
	}
)

func newCtx(a *sparse.CSR, m precond.Interface, opts *Options, stats *Stats) (*ctx, error) {
	if a == nil {
		return nil, fmt.Errorf("%w: nil matrix", ErrDimension)
	}
	n := a.Dim()
	if m == nil {
		m = precond.NewIdentity(n)
	}
	if m.Dim() != n {
		return nil, fmt.Errorf("%w: matrix n=%d, preconditioner n=%d", ErrDimension, n, m.Dim())
	}
	var op sparse.Matrix = a
	if opts.Operator != nil {
		if opts.Operator.Dim() != n {
			return nil, fmt.Errorf("%w: matrix n=%d, operator n=%d", ErrDimension, n, opts.Operator.Dim())
		}
		op = opts.Operator
	}
	// Mirror the tracker's halo-exchange events into the trace so the
	// breakdown covers the modeled communication structure too.
	if opts.Tracker != nil && opts.Trace != nil {
		opts.Tracker.Obs = opts.Trace
	}
	return &ctx{a: a, op: op, m: m, k: &pooledKernels, tr: opts.Tracker, obs: opts.Trace, inj: opts.Injector, n: n, stats: stats, f32Gram: opts.Float32Gram, cancel: opts.Cancel}, nil
}

// newRankCtx builds the context of one spmd rank owning lm's rows, with the
// rank-local preconditioner m.
func newRankCtx(rk *spmd.Rank, lm *spmd.LocalMatrix, m precond.Interface) *ctx {
	return &ctx{m: m, k: &serialKernels, n: lm.NLocal(), stats: &Stats{}, rank: &rankComm{rk: rk, lm: lm}}
}

// body is a solver's iteration, shared by both runtimes: it runs on c from
// x = opts.X0 (zero when nil) and returns the solution, or nil and the error
// for invalid inputs. ErrCancelled comes with the partial solution.
type body func(c *ctx, b []float64, opts Options) ([]float64, error)

// run is the modeled entry of every solver: it applies the option
// defaults, validates the operands, builds the context and runs the body.
func run(iterate body, a *sparse.CSR, m precond.Interface, b []float64, opts Options) ([]float64, *Stats, error) {
	opts = opts.withDefaults()
	c, err := newCtx(a, m, &opts, &Stats{})
	if err != nil {
		return nil, nil, err
	}
	if len(b) != c.n {
		return nil, nil, fmt.Errorf("%w: len(b)=%d, n=%d", ErrDimension, len(b), c.n)
	}
	if opts.X0 != nil && len(opts.X0) != c.n {
		return nil, nil, fmt.Errorf("%w: len(x0)=%d, n=%d", ErrDimension, len(opts.X0), c.n)
	}
	x, err := iterate(c, b, opts)
	if x == nil {
		return nil, nil, err
	}
	return x, c.stats, err
}

// initialGuess returns a fresh iterate holding opts.X0 (zero when nil).
func (c *ctx) initialGuess(opts Options) []float64 {
	x := make([]float64, c.n)
	copy(x, opts.X0)
	return x
}

// cancelled polls Options.Cancel without blocking. Solvers call it once per
// (outer) iteration, so cancellation latency is one iteration's work.
func (c *ctx) cancelled() bool {
	if c.cancel == nil {
		return false
	}
	select {
	case <-c.cancel:
		return true
	default:
		return false
	}
}

// spmv computes dst = A·src, charging one distributed SpMV. An installed
// fault injector may silently corrupt the output — the soft-error model the
// detection/recovery machinery defends against. On a rank it is the halo
// exchange followed by the local SpMV.
func (c *ctx) spmv(dst, src []float64) {
	t0 := c.obs.Begin()
	if c.rank != nil {
		c.rank.lm.SpMV(c.rank.rk, dst, src)
	} else {
		c.op.MulVecPar(dst, src)
	}
	c.obs.End(obs.PhaseSpMV, t0)
	c.inj.CorruptSpMV(dst)
	c.tr.SpMV()
	c.stats.MVProducts++
}

// applyM computes dst = M⁻¹·src, charging one preconditioner application.
func (c *ctx) applyM(dst, src []float64) {
	t0 := c.obs.Begin()
	c.m.Apply(dst, src)
	c.obs.End(obs.PhasePrec, t0)
	c.tr.PrecApply(c.m.Flops(), c.m.HaloExchanges())
	c.stats.PrecApplies++
}

// mpkOp adapts the context to mpk.Operator (and mpk.BasisStepper: the fused
// SpMV + three-term + diagonal-preconditioner fast path).
type mpkOp struct{ c *ctx }

func (o mpkOp) Dim() int                  { return o.c.n }
func (o mpkOp) MulVec(dst, src []float64) { o.c.spmv(dst, src) }

// ObsTracer exposes the solve's phase tracer to the matrix powers kernel
// (mpk.TracerOf) so the three-term recurrence combines are attributed to the
// basis phase. Nil when tracing is disabled.
func (o mpkOp) ObsTracer() *obs.Tracer { return o.c.obs }

// invDiagger is the preconditioner capability the fused MPK path needs.
type invDiagger interface{ InvDiag() []float64 }

// FusedBasisStep implements mpk.BasisStepper: when the preconditioner is
// diagonal and no fault injector needs to observe the raw SpMV output, the
// basis column advances in one pass over the matrix rows. The charged costs
// (one SpMV, one preconditioner application when uNext is requested) are
// identical to the unfused path, so Table 1's measured counts and the
// distributed cost model are unchanged. With an injector the unfused path
// keeps the corrupted SpMV outputs visible; on a rank the SpMV needs a halo
// exchange first.
func (o mpkOp) FusedBasisStep(sNext, u, sCur, sPrev []float64, theta, mu, gamma float64, uNext []float64) bool {
	c := o.c
	if c.inj != nil || c.rank != nil {
		return false
	}
	jd, ok := c.m.(invDiagger)
	if !ok {
		return false
	}
	t0 := c.obs.Begin()
	c.op.FusedBasisStepPar(sNext, u, sCur, sPrev, theta, mu, gamma, jd.InvDiag(), uNext)
	c.obs.End(obs.PhaseBasis, t0)
	c.tr.SpMV()
	c.stats.MVProducts++
	if uNext != nil {
		c.tr.PrecApply(c.m.Flops(), c.m.HaloExchanges())
		c.stats.PrecApplies++
	}
	return true
}

// mpkPrec adapts the context to mpk.Preconditioner.
type mpkPrec struct{ c *ctx }

func (p mpkPrec) Apply(dst, src []float64) { p.c.applyM(dst, src) }

// reduce completes one global sum of the local partial values, in place,
// and returns them. In the modeled context they are already global, so it
// only charges a collective of `charged` values; on a rank it is
// Rank.Allreduce. charged = 0 marks values the modeled solvers fuse into a
// later collective: free in the model, but reduced on their own on a rank,
// where every branch must read reduced values.
func (c *ctx) reduce(charged int, local ...float64) []float64 {
	if rc := c.rank; rc != nil {
		// Contribute a copy, so local never escapes and the modeled path
		// allocates nothing; copy the result back, because Rank.Allreduce
		// hands every rank the same result slice.
		rc.buf = append(rc.buf[:0], local...)
		copy(local, rc.rk.Allreduce(rc.buf))
		rc.collectives++
	}
	if charged > 0 {
		c.tr.Allreduce(charged)
		c.obs.Count(obs.PhaseCollective, int64(charged))
		c.stats.Allreduces++
		c.stats.AllreduceValues += charged
	}
	return local
}

// dot computes one globally reduced inner product (PCG-style: its own
// allreduce).
func (c *ctx) dot(a, b []float64) float64 {
	return c.reduce(1, c.localDot(a, b))[0]
}

// dots computes k inner products whose locals are fused into a single
// allreduce of k values (the 3-term and s-step solvers' pattern).
func (c *ctx) dots(pairs ...[2][]float64) []float64 {
	t0 := c.obs.Begin()
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = c.k.dot(p[0], p[1])
		c.tr.ReduceLocal(2*float64(c.n), 16*float64(c.n))
	}
	c.obs.End(obs.PhaseGram, t0)
	return c.reduce(len(pairs), out...)
}

// localDot computes an inner product counted as local reduction work but
// NOT reduced — callers fuse it into a larger collective themselves.
func (c *ctx) localDot(a, b []float64) float64 {
	c.tr.ReduceLocal(2*float64(c.n), 16*float64(c.n))
	t0 := c.obs.Begin()
	v := c.k.dot(a, b)
	c.obs.End(obs.PhaseGram, t0)
	return v
}

// boundary reduces the s-step methods' block-boundary values: rᵀu, and
// ‖r‖² under the recursive 2-norm criterion (0 otherwise). The model fuses
// them into the outer iteration's Gram reduction (charged there); a rank
// reduces them here, because the convergence check branches on them.
func (c *ctx) boundary(r, u []float64, crit Criterion) (rho, rr float64) {
	v := []float64{c.localDot(r, u), 0}
	if crit == RecursiveResidual2Norm {
		v[1] = c.localDot(r, r)
	}
	v = c.reduce(0, v...)
	return v[0], v[1]
}

// gram computes the local part of Xᵀ·Y with the fused cache-blocked kernel,
// charging BLAS3-style reduction work.
func (c *ctx) gram(x, y *vec.Block) []float64 {
	sa, sb := x.S(), y.S()
	flops := 2 * float64(sa) * float64(sb) * float64(c.n)
	bytes := 8 * float64(c.n) * float64(sa+sb) // blocked: stream each operand once
	t0 := c.obs.Begin()
	if c.f32Gram {
		c.tr.ReduceLocal(flops, bytes/2)
		g := vec.GramF32(x, y)
		c.obs.End(obs.PhaseGram, t0)
		return g
	}
	c.tr.ReduceLocal(flops, bytes)
	g := c.k.gram(x, y)
	c.obs.End(obs.PhaseGram, t0)
	return g
}

// gramVec computes the local part of Xᵀ·v.
func (c *ctx) gramVec(x *vec.Block, v []float64) []float64 {
	s := x.S()
	c.tr.ReduceLocal(2*float64(s)*float64(c.n), 8*float64(c.n)*float64(s+1))
	t0 := c.obs.Begin()
	g := c.k.gramVec(x, v)
	c.obs.End(obs.PhaseGram, t0)
	return g
}

// axpy charges y += α·x.
func (c *ctx) axpy(alpha float64, x, y []float64) {
	t0 := c.obs.Begin()
	vec.Axpy(alpha, x, y)
	c.obs.End(obs.PhaseVector, t0)
	c.tr.VectorOp(2*float64(c.n), 24*float64(c.n))
}

// xpay charges dst = x + α·y.
func (c *ctx) xpay(dst, x []float64, alpha float64, y []float64) {
	t0 := c.obs.Begin()
	vec.XpayInto(dst, x, alpha, y)
	c.obs.End(obs.PhaseVector, t0)
	c.tr.VectorOp(2*float64(c.n), 24*float64(c.n))
}

// threeTermUpdate charges dst = ρ(x − γ·y) + (1−ρ)·w, the BLAS1 pattern of
// PCG3/CA-PCG3 (4 flops per row, 4 streams).
func (c *ctx) threeTermUpdate(dst []float64, rho float64, x []float64, gamma float64, y, w []float64) {
	t0 := c.obs.Begin()
	for i := range dst {
		dst[i] = rho*(x[i]-gamma*y[i]) + (1-rho)*w[i]
	}
	c.obs.End(obs.PhaseVector, t0)
	c.tr.VectorOp(4*float64(c.n), 32*float64(c.n))
}

// blockVec charges one fused destination sweep dst (=, +=, −=) X·coef;
// kernel is one of c.k.combine, c.k.addTo, c.k.subFrom.
func (c *ctx) blockVec(kernel func(x *vec.Block, dst, coef []float64), dst []float64, x *vec.Block, coef []float64) {
	t0 := c.obs.Begin()
	kernel(x, dst, coef)
	c.obs.End(obs.PhaseBlockUpdate, t0)
	s := float64(x.S())
	c.tr.VectorOp(2*s*float64(c.n), 8*float64(c.n)*(s+1))
}

// blockAddMul charges dst = Y + X·C (the BLAS3 search-direction update).
func (c *ctx) blockAddMul(dst, y, x *vec.Block, coef []float64) {
	t0 := c.obs.Begin()
	c.k.addMul(dst, y, x, coef)
	c.obs.End(obs.PhaseBlockUpdate, t0)
	sx, sd := float64(x.S()), float64(dst.S())
	flops := 2 * sx * sd * float64(c.n)
	bytes := 8 * float64(c.n) * (sx + 2*sd)
	c.tr.VectorOp(flops, bytes)
}

// blockMul charges dst = X·C.
func (c *ctx) blockMul(dst, x *vec.Block, coef []float64) {
	t0 := c.obs.Begin()
	c.k.mul(dst, x, coef)
	c.obs.End(obs.PhaseBlockUpdate, t0)
	sx, sd := float64(x.S()), float64(dst.S())
	c.tr.VectorOp(2*sx*sd*float64(c.n), 8*float64(c.n)*(sx+sd))
}

// residual computes r = b − A·x (charged: one SpMV and one vector op).
func (c *ctx) residual(r, b, x []float64) {
	c.spmv(r, x)
	vec.Sub(r, b, r)
	c.tr.VectorOp(float64(c.n), 24*float64(c.n))
}

// trueResidualNorm computes ‖b−Ax‖₂ explicitly (charged: SpMV + local dot +
// allreduce).
func (c *ctx) trueResidualNorm(b, x, scratch []float64) float64 {
	c.residual(scratch, b, x)
	return math.Sqrt(c.dot(scratch, scratch))
}

// finite reports whether all values are finite.
func finite(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

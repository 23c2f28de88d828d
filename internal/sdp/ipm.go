package sdp

import (
	"context"
	"fmt"
	"math"

	"sdpfloor/internal/linalg"
	"sdpfloor/internal/parallel"
	"sdpfloor/internal/trace"
)

// IPMOptions configure the interior-point solver.
type IPMOptions struct {
	Tol     float64 // relative tolerance on gap and infeasibilities (default 1e-7)
	MaxIter int     // iteration cap (default 100)
	Gamma   float64 // fraction-to-boundary factor in (0,1) (default 0.98)
	NoScale bool    // disable the constraint equilibration presolve
	Logf    func(format string, args ...any)
	// Workers is the parallelism used for the Schur complement, the dense
	// factorizations, and the step computation. 0 picks the shared pool
	// default (GOMAXPROCS, or SDPFLOOR_WORKERS when set); 1 is fully
	// sequential. Every parallel path splits work into chunks fixed by the
	// requested count with element-disjoint writes, so the iterate trajectory
	// is bitwise identical for every value of Workers.
	Workers int
	// Warm start (optional): a prior primal–dual iterate, typically the
	// solution of a closely related problem (same constraints, perturbed
	// objective). All five pieces must be present and shape-matched —
	// X0/S0 one matrix per PSD block, XLP0/SLP0 of length LPDim, Y0 of
	// length len(Cons) — or the solver starts cold. The iterate is pushed
	// to the interior (blended with the centered scaled identity) before
	// use, and the solver falls back to the cold start automatically when
	// the blended point is still not safely positive definite, or when the
	// warm run ends in a numerical failure (the rerun's Solution.Iterations
	// includes the failed run's); Solution.Warm reports what actually
	// happened. Y0 is given against the original problem; the solver maps
	// it onto the equilibrated rows itself.
	X0, S0     []*linalg.Dense
	XLP0, SLP0 []float64
	Y0         []float64
	// Reuse, when non-nil, caches the equilibration and the symmetric
	// constraint-entry expansion across a sequence of solves whose
	// constraint set is unchanged (see IPMReuse). Independent of the warm
	// start: either can be used without the other.
	Reuse *IPMReuse
	// Arena, when non-nil, supplies the iteration-scoped scratch — matrices,
	// factorization and eigendecomposition workspaces, direction storage —
	// and receives all of it back when the solve returns. A convex-iteration
	// driver that hands the same arena to every solve of a sequence makes
	// the whole sequence allocation-free in the steady state. An arena must
	// not be shared by concurrent solves. Nil allocates private scratch.
	Arena *linalg.Arena
	// Context, when non-nil, is checked at every iteration boundary; on
	// cancellation or deadline the solver stops, returns the current iterate
	// with StatusCancelled, and reports the context error.
	Context context.Context
	// Trace, when non-nil and enabled, receives structured telemetry
	// ("ipm" events): one "start" record, one "iter" record per completed
	// iteration (μ, objectives, residuals, centering σ, step lengths,
	// Cholesky retries), and exactly one "final" record on every exit path
	// — convergence, numerical failure, the iteration limit, and
	// cancellation. Event content is deterministic across worker counts.
	// When the equilibration presolve is active (NoScale unset), traced
	// objectives and residuals refer to the scaled problem the iterations
	// run on. See internal/trace and docs/TRACING.md.
	Trace trace.Recorder
}

func (o *IPMOptions) setDefaults() {
	if o.Tol == 0 {
		o.Tol = 1e-7
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Gamma == 0 {
		o.Gamma = 0.98
	}
}

// ipmState carries the working variables of one solve. The iterate itself
// (x, s, y, and the LP parts) is allocated plainly — it escapes into the
// returned Solution — while everything iteration-scoped below the scratch
// marker is checked out of the arena at construction and returned by
// release(), so the iteration loop allocates nothing in the steady state.
type ipmState struct {
	p       *Problem
	opt     IPMOptions
	workers int

	nb   int // number of PSD blocks
	m    int // number of constraints
	nu   float64
	fac  *factored // the constraints as outer products, read by formSchur
	warm bool      // iterate seeded from IPMOptions.{X0,S0,Y0,...}

	x, s     []*linalg.Dense
	xlp, slp []float64
	y        []float64

	b      []float64
	bn, cn float64

	// Iteration-scoped scratch (arena-owned).
	arena    *linalg.Arena
	rp       []float64
	rd       []*linalg.Dense
	rdlp     []float64
	ax       []float64
	sinv     []*linalg.Dense
	xchol    []*linalg.Cholesky // views into xcholW, refreshed per iteration
	schol    []*linalg.Cholesky
	xcholW   []*linalg.CholWork
	scholW   []*linalg.CholWork
	tryCholW []*linalg.CholWork // step-safeguard trial factorizations
	eigW     []*linalg.EigWork
	schurW   *linalg.CholWork
	schur    *linalg.Dense
	fu, fw   []*linalg.Dense // per block: U = X·q and W = S⁻¹·p, one row per term
	fbuf     [][]float64     // per block: the arena vector behind fu and fw
	xrdsinv  []*linalg.Dense // X Rd S⁻¹ cache, shared by predictor and corrector
	corr     []*linalg.Dense // Mehrotra corrector ΔX_aff·ΔS_aff
	corrSinv []*linalg.Dense
	corrLP   []float64
	tmp1     []*linalg.Dense
	tmp2     []*linalg.Dense
	rhs      []float64
	aff, dir *direction
	mm       linalg.MatMulWork

	// Dispatch state for the bound parallel closures: the closures are
	// created once at construction and read the fields below, so per-call
	// dispatch allocates nothing.
	schurFn, rhsFn, fillFn func(lo, hi int)
	fillB                  int
	dSigmaMu               float64
	dUseCorr               bool
}

// SolveIPM solves the problem with a primal–dual interior-point method using
// the HKM search direction and Mehrotra's predictor–corrector. It is an
// infeasible-start method: the initial iterate is a scaled identity, or a
// pushed-to-interior blend of the caller's prior solution when the warm-start
// options are set. The cold start is the fallback twice over: when the
// blended point fails its test factorization, and when the warm-started run
// ends in a numerical failure, in which case the solve reruns once from the
// cold point as a traced run of its own and reports Warm=false.
func SolveIPM(p *Problem, opt IPMOptions) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opt.setDefaults()
	orig := p
	reuseHit := opt.Reuse != nil && opt.Reuse.matches(p, opt.NoScale)
	var sp *scaledProblem
	if !opt.NoScale {
		if reuseHit {
			// Same constraints as the cached solve: only the objective
			// changed, and equilibrate shares C/CLP shallowly, so swapping
			// them in revalidates the cached scaled problem.
			sp = opt.Reuse.scaled
			sp.p.C, sp.p.CLP = p.C, p.CLP
		} else {
			sp = equilibrate(p)
		}
		p = sp.p
		if len(opt.Y0) == len(p.Cons) {
			// The iterations run on the row-equilibrated problem; map the
			// warm duals forward (unscaleDuals inverts this on the way out).
			y0 := make([]float64, len(opt.Y0))
			for k, v := range opt.Y0 {
				y0[k] = v * sp.norms[k]
			}
			opt.Y0 = y0
		}
	}
	var fac *factored
	if reuseHit {
		fac = opt.Reuse.fac
	}
	st := newIPMState(p, opt, fac)
	if opt.Reuse != nil && !reuseHit {
		opt.Reuse.store(orig, opt.NoScale, sp, st.fac)
	}
	sol := st.run()
	if st.warm && sol.Status == StatusNumericalFailure {
		// The warm iterate led into a numerical dead end that nearOptimal
		// could not rescue. Rerun once from the cold point; run has
		// already returned the first state's arena leases. Iterations
		// counts the work of both runs.
		cold := opt
		cold.X0, cold.S0, cold.XLP0, cold.SLP0, cold.Y0 = nil, nil, nil, nil, nil
		first := sol.Iterations
		sol = newIPMState(p, cold, st.fac).run()
		sol.Iterations += first
	}
	if sp != nil {
		sp.unscaleDuals(sol.Y)
		// Objectives and residuals are reported against the original data.
		sol.DualObj = 0
		for k := range sp.norms {
			sol.DualObj += sol.Y[k] * sp.p.Cons[k].B * sp.norms[k]
		}
	}
	if sol.Status == StatusCancelled {
		return sol, fmt.Errorf("sdp: ipm cancelled after %d iterations: %w",
			sol.Iterations, opt.Context.Err())
	}
	return sol, nil
}

// newIPMState prepares the working state. fac, when non-nil, is a cached
// factored form from IPMReuse (valid because the constraint set is
// unchanged); nil builds it fresh.
func newIPMState(p *Problem, opt IPMOptions, fac *factored) *ipmState {
	st := &ipmState{p: p, opt: opt, nb: len(p.PSDDims), m: len(p.Cons)}
	st.workers = parallel.Workers(opt.Workers)
	st.nu = float64(p.coneDim())
	st.b = p.rhsVector()
	st.bn, st.cn = p.dataNorms()

	if fac == nil {
		fac = factorRows(p)
	}
	st.fac = fac

	// Initial point: scaled identities (SDPT3-style heuristics).
	xi := math.Max(10, math.Sqrt(st.nu))
	eta := math.Max(10, math.Sqrt(st.nu))
	//sdpvet:ignore ctxloop bounded initial-point setup; the IPM iteration loop checks Context every step
	for k := range p.Cons {
		anorm := constraintNorm(&p.Cons[k])
		if v := float64(p.coneDim()) * math.Abs(p.Cons[k].B) / (1 + anorm); v > xi {
			xi = v
		}
	}
	if st.cn > eta {
		eta = st.cn
	}
	st.x = make([]*linalg.Dense, st.nb)
	st.s = make([]*linalg.Dense, st.nb)
	for bidx, d := range p.PSDDims {
		st.x[bidx] = linalg.Identity(d)
		st.x[bidx].Scale(xi)
		st.s[bidx] = linalg.Identity(d)
		st.s[bidx].Scale(eta)
	}
	st.xlp = make([]float64, p.LPDim)
	st.slp = make([]float64, p.LPDim)
	for i := range st.xlp {
		st.xlp[i] = xi
		st.slp[i] = eta
	}
	st.y = make([]float64, st.m)

	// Arena-owned scratch: everything below is returned by release().
	st.arena = opt.Arena
	if st.arena == nil {
		st.arena = linalg.NewArena()
	}
	a := st.arena
	st.rd = make([]*linalg.Dense, st.nb)
	st.sinv = make([]*linalg.Dense, st.nb)
	st.xchol = make([]*linalg.Cholesky, st.nb)
	st.schol = make([]*linalg.Cholesky, st.nb)
	st.xcholW = make([]*linalg.CholWork, st.nb)
	st.scholW = make([]*linalg.CholWork, st.nb)
	st.tryCholW = make([]*linalg.CholWork, st.nb)
	st.eigW = make([]*linalg.EigWork, st.nb)
	st.xrdsinv = make([]*linalg.Dense, st.nb)
	st.corr = make([]*linalg.Dense, st.nb)
	st.corrSinv = make([]*linalg.Dense, st.nb)
	st.tmp1 = make([]*linalg.Dense, st.nb)
	st.tmp2 = make([]*linalg.Dense, st.nb)
	for bidx, d := range p.PSDDims {
		st.rd[bidx] = a.Mat(d, d)
		st.sinv[bidx] = a.Mat(d, d)
		st.xrdsinv[bidx] = a.Mat(d, d)
		st.corr[bidx] = a.Mat(d, d)
		st.corrSinv[bidx] = a.Mat(d, d)
		st.tmp1[bidx] = a.Mat(d, d)
		st.tmp2[bidx] = a.Mat(d, d)
		st.xcholW[bidx] = a.Chol(d)
		st.scholW[bidx] = a.Chol(d)
		st.tryCholW[bidx] = a.Chol(d)
		st.eigW[bidx] = a.Eig(d)
	}
	st.checkoutFactors()
	st.schurW = a.Chol(st.m)
	st.schur = a.Mat(st.m, st.m)
	st.rp = a.Vec(st.m)
	st.ax = a.Vec(st.m)
	st.rhs = a.Vec(st.m)
	st.rdlp = a.Vec(p.LPDim)
	st.corrLP = a.Vec(p.LPDim)
	st.aff = st.newDirection()
	st.dir = st.newDirection()
	st.schurFn = st.schurRows
	st.rhsFn = st.rhsRows
	st.fillFn = st.fillRows

	// Warm start, when requested: replaces the cold point just prepared,
	// falling back to it automatically if the warmed iterate is unusable.
	st.warm = st.tryWarmStart(xi, eta)
	return st
}

// release returns every piece of iteration-scoped scratch to the arena. Run
// exactly once, when the solve finishes; the next solve sharing the arena
// checks the same buffers out again.
func (st *ipmState) release() {
	a := st.arena
	for bidx := range st.rd {
		a.Put(st.rd[bidx])
		a.Put(st.sinv[bidx])
		a.Put(st.xrdsinv[bidx])
		a.Put(st.corr[bidx])
		a.Put(st.corrSinv[bidx])
		a.Put(st.tmp1[bidx])
		a.Put(st.tmp2[bidx])
		a.PutChol(st.xcholW[bidx])
		a.PutChol(st.scholW[bidx])
		a.PutChol(st.tryCholW[bidx])
		a.PutEig(st.eigW[bidx])
		a.PutVec(st.fbuf[bidx])
	}
	a.PutChol(st.schurW)
	a.Put(st.schur)
	a.PutVec(st.rp)
	a.PutVec(st.ax)
	a.PutVec(st.rhs)
	a.PutVec(st.rdlp)
	a.PutVec(st.corrLP)
	st.putDirection(st.aff)
	st.putDirection(st.dir)
}

func constraintNorm(c *Constraint) float64 {
	s := 0.0
	for _, es := range c.PSD {
		for _, e := range es {
			if e.I == e.J {
				s += e.V * e.V
			} else {
				s += 2 * e.V * e.V
			}
		}
	}
	for _, e := range c.LP {
		s += e.V * e.V
	}
	return math.Sqrt(s)
}

// direction holds one search direction over all blocks. Its storage is
// arena-owned (see newDirection/putDirection); the two directions the solver
// needs live for the whole solve and are reused every iteration.
type direction struct {
	dx, ds     []*linalg.Dense
	dxlp, dslp []float64
	dy         []float64
}

func (st *ipmState) newDirection() *direction {
	a := st.arena
	d := &direction{
		dx: make([]*linalg.Dense, st.nb), ds: make([]*linalg.Dense, st.nb),
		dxlp: a.Vec(st.p.LPDim), dslp: a.Vec(st.p.LPDim),
		dy: a.Vec(st.m),
	}
	for bidx, dim := range st.p.PSDDims {
		d.dx[bidx] = a.Mat(dim, dim)
		d.ds[bidx] = a.Mat(dim, dim)
	}
	return d
}

func (st *ipmState) putDirection(d *direction) {
	a := st.arena
	for bidx := range d.dx {
		a.Put(d.dx[bidx])
		a.Put(d.ds[bidx])
	}
	a.PutVec(d.dxlp)
	a.PutVec(d.dslp)
	a.PutVec(d.dy)
}

func (st *ipmState) run() *Solution {
	defer st.release()
	p, opt := st.p, st.opt
	sol := &Solution{Status: StatusIterationLimit}
	tr := trace.Start(opt.Trace, "ipm", func() []trace.Field {
		return []trace.Field{
			{Key: "m", Val: float64(st.m)},
			{Key: "nu", Val: st.nu},
			{Key: "tol", Val: opt.Tol},
			{Key: "maxIter", Val: float64(opt.MaxIter)},
			{Key: "warm", Val: trace.Bool(st.warm)},
		}
	})
	// The deferred End covers every exit path — convergence, the three
	// numerical-failure returns, the iteration limit, and the
	// cancellation break — so a trace always closes with one "final".
	defer func() {
		tr.End(sol.Iterations, sol.Status.String(), func() []trace.Field {
			return []trace.Field{
				{Key: "pobj", Val: sol.PrimalObj},
				{Key: "dobj", Val: sol.DualObj},
				{Key: "relP", Val: sol.PrimalInfeas},
				{Key: "relD", Val: sol.DualInfeas},
				{Key: "relG", Val: sol.Gap},
				{Key: "warm", Val: trace.Bool(st.warm)},
			}
		})
	}()

	for iter := 0; iter < opt.MaxIter; iter++ {
		if opt.Context != nil && opt.Context.Err() != nil {
			sol.Status = StatusCancelled
			break
		}
		sol.Iterations = iter
		st.residuals()

		gap := st.innerXS()
		mu := gap / st.nu
		pobj := p.primalObjective(st.x, st.xlp)
		dobj := linalg.Dot(st.b, st.y)
		relP := linalg.Norm2(st.rp) / (1 + st.bn)
		relD := st.dualResNorm() / (1 + st.cn)
		relG := math.Abs(pobj-dobj) / (1 + math.Abs(pobj) + math.Abs(dobj))
		if opt.Logf != nil {
			opt.Logf("ipm iter %2d: pobj=%.6e dobj=%.6e gap=%.2e relP=%.2e relD=%.2e",
				iter, pobj, dobj, relG, relP, relD)
		}
		if relP < opt.Tol && relD < opt.Tol && relG < opt.Tol {
			sol.Status = StatusOptimal
			st.fill(sol, pobj, dobj, relP, relD, relG)
			return sol
		}

		// Factor X and S; compute S⁻¹.
		if !st.factorIterates() {
			sol.Status = StatusNumericalFailure
			if st.nearOptimal(relP, relD, relG) {
				sol.Status = StatusOptimal
			}
			st.fill(sol, pobj, dobj, relP, relD, relG)
			return sol
		}

		// Schur complement (shared by predictor and corrector).
		schur := st.formSchur()
		sfac, retries, err := factorSchur(st.schurW, schur, st.workers)
		if err != nil {
			sol.Status = StatusNumericalFailure
			if st.nearOptimal(relP, relD, relG) {
				sol.Status = StatusOptimal
			}
			st.fill(sol, pobj, dobj, relP, relD, relG)
			return sol
		}

		// A(X Rd S⁻¹) — reused by both solves this iteration.
		st.prepXrdsinv()

		// Predictor: σ = 0, no corrector term.
		aff := st.aff
		st.solveDirection(sfac, aff, 0, mu, false)
		apAff := st.maxStepPrimal(aff)
		adAff := st.maxStepDual(aff)

		// Mehrotra centering parameter.
		muAff := st.innerXSAfter(aff, apAff, adAff) / st.nu
		sigma := math.Pow(muAff/mu, 3)
		if sigma > 1 {
			sigma = 1
		}
		if sigma < 1e-8 {
			sigma = 1e-8
		}

		// Corrector.
		st.buildCorrector(aff)
		dir := st.dir
		st.solveDirection(sfac, dir, sigma, mu, true)

		ap := st.maxStepPrimal(dir)
		ad := st.maxStepDual(dir)
		// Safety: ensure factorizability after the step; back off if needed.
		ap = st.safeguardPrimal(dir, ap)
		ad = st.safeguardDual(dir, ad)
		if ap < 1e-10 && ad < 1e-10 {
			sol.Status = StatusNumericalFailure
			if st.nearOptimal(relP, relD, relG) {
				sol.Status = StatusOptimal
			}
			st.fill(sol, pobj, dobj, relP, relD, relG)
			return sol
		}

		for bidx := range st.x {
			st.x[bidx].AddScaled(ap, dir.dx[bidx])
			st.x[bidx].Symmetrize()
			st.s[bidx].AddScaled(ad, dir.ds[bidx])
			st.s[bidx].Symmetrize()
		}
		for i := range st.xlp {
			st.xlp[i] += ap * dir.dxlp[i]
			st.slp[i] += ad * dir.dslp[i]
		}
		linalg.Axpy(ad, dir.dy, st.y)

		tr.Iter(iter, func() []trace.Field {
			return []trace.Field{
				{Key: "mu", Val: mu},
				{Key: "pobj", Val: pobj},
				{Key: "dobj", Val: dobj},
				{Key: "relP", Val: relP},
				{Key: "relD", Val: relD},
				{Key: "relG", Val: relG},
				{Key: "sigma", Val: sigma},
				{Key: "alphaP", Val: ap},
				{Key: "alphaD", Val: ad},
				{Key: "cholRetries", Val: float64(retries)},
			}
		})
	}

	// Iteration limit: report final residuals.
	pobj := p.primalObjective(st.x, st.xlp)
	dobj := linalg.Dot(st.b, st.y)
	p.applyA(st.x, st.xlp, st.ax)
	for k := range st.rp {
		st.rp[k] = st.b[k] - st.ax[k]
	}
	relP := linalg.Norm2(st.rp) / (1 + st.bn)
	relD := st.dualResNorm() / (1 + st.cn)
	relG := math.Abs(pobj-dobj) / (1 + math.Abs(pobj) + math.Abs(dobj))
	st.fill(sol, pobj, dobj, relP, relD, relG)
	return sol
}

// nearOptimal downgrades a numerical stall close to convergence —
// interior-point iterations routinely lose positive definiteness in the last
// digits of an already-excellent iterate; callers get the near-optimal point
// rather than a failure.
func (st *ipmState) nearOptimal(relP, relD, relG float64) bool {
	loose := 50 * st.opt.Tol
	return relP < loose && relD < loose && relG < loose
}

// residuals refreshes Ax, rp = b − Ax, Rd = C − S − Aᵀy, and the LP dual
// residual at the current iterate.
//
//sdpvet:hotpath
func (st *ipmState) residuals() {
	p := st.p
	p.applyA(st.x, st.xlp, st.ax)
	for k := range st.rp {
		st.rp[k] = st.b[k] - st.ax[k]
	}
	p.applyAT(st.y, st.rd, st.rdlp)
	for bidx := range st.rd {
		// Rd = C − S − Aᵀ(y); applyAT stored Aᵀ(y), flip and add.
		rd := st.rd[bidx]
		rd.Scale(-1)
		rd.AddScaled(1, p.C[bidx])
		rd.AddScaled(-1, st.s[bidx])
	}
	for i := range st.rdlp {
		st.rdlp[i] = p.CLP[i] - st.slp[i] - st.rdlp[i]
	}
}

// factorIterates refactors every X and S block into the recycled workspaces
// and refreshes S⁻¹ in place; it reports false when a block has lost positive
// definiteness.
//
//sdpvet:hotpath
func (st *ipmState) factorIterates() bool {
	for bidx := range st.x {
		c, err := st.xcholW[bidx].Factor(st.x[bidx], st.workers)
		if err != nil {
			return false
		}
		st.xchol[bidx] = c
		c, err = st.scholW[bidx].Factor(st.s[bidx], st.workers)
		if err != nil {
			return false
		}
		st.schol[bidx] = c
		c.InverseInto(st.sinv[bidx], st.workers)
		st.sinv[bidx].Symmetrize()
	}
	return true
}

// prepXrdsinv refreshes the per-block X Rd S⁻¹ product cache shared by the
// predictor and corrector right-hand sides.
//
//sdpvet:hotpath
func (st *ipmState) prepXrdsinv() {
	for bidx := range st.x {
		st.mm.MatMulInto(st.tmp1[bidx], st.x[bidx], st.rd[bidx], st.workers)
		st.mm.MatMulInto(st.xrdsinv[bidx], st.tmp1[bidx], st.sinv[bidx], st.workers)
	}
}

// buildCorrector fills the Mehrotra corrector terms ΔX_aff·ΔS_aff (and the
// LP analogue) from the affine direction.
//
//sdpvet:hotpath
func (st *ipmState) buildCorrector(aff *direction) {
	for bidx := range st.corr {
		st.mm.MatMulInto(st.corr[bidx], aff.dx[bidx], aff.ds[bidx], st.workers)
	}
	for i := range st.corrLP {
		st.corrLP[i] = aff.dxlp[i] * aff.dslp[i]
	}
}

func (st *ipmState) fill(sol *Solution, pobj, dobj, relP, relD, relG float64) {
	sol.Warm = st.warm
	sol.X = st.x
	sol.XLP = st.xlp
	sol.Y = st.y
	sol.S = st.s
	sol.SLP = st.slp
	sol.PrimalObj = pobj
	sol.DualObj = dobj
	sol.PrimalInfeas = relP
	sol.DualInfeas = relD
	sol.Gap = relG
}

//sdpvet:hotpath
func (st *ipmState) innerXS() float64 {
	g := linalg.Dot(st.xlp, st.slp)
	for bidx := range st.x {
		g += linalg.InnerProd(st.x[bidx], st.s[bidx])
	}
	return g
}

// innerXSAfter evaluates ⟨X + αpΔX, S + αdΔS⟩ by bilinear expansion — four
// inner products per block instead of two cloned-and-updated matrices.
//
//sdpvet:hotpath
func (st *ipmState) innerXSAfter(d *direction, ap, ad float64) float64 {
	g := 0.0
	for bidx := range st.x {
		x, s := st.x[bidx], st.s[bidx]
		dx, ds := d.dx[bidx], d.ds[bidx]
		g += linalg.InnerProd(x, s) + ad*linalg.InnerProd(x, ds) +
			ap*linalg.InnerProd(dx, s) + ap*ad*linalg.InnerProd(dx, ds)
	}
	for i := range st.xlp {
		g += (st.xlp[i] + ap*d.dxlp[i]) * (st.slp[i] + ad*d.dslp[i])
	}
	return g
}

//sdpvet:hotpath
func (st *ipmState) dualResNorm() float64 {
	s := 0.0
	for bidx := range st.rd {
		f := st.rd[bidx].FrobNorm()
		s += f * f
	}
	f := linalg.Norm2(st.rdlp)
	return math.Sqrt(s + f*f)
}

// factorSchur factors the Schur complement into the recycled workspace,
// retrying with a diagonal shift when the factorization fails. The shift is
// recomputed from the *current* diagonal before every retry: earlier attempts
// have already shifted the matrix, so a bound captured once up front both
// understates what a later attempt needs and — when taken from MaxAbs of the
// full matrix — overshoots badly for Schur complements whose off-diagonal
// entries dwarf the diagonal. On success the (possibly shifted) matrix
// remains in schur, and the second return value reports how many shifted
// retries were needed (0 on a clean factorization) — surfaced per iteration
// by the trace layer.
//
//sdpvet:hotpath
func factorSchur(w *linalg.CholWork, schur *linalg.Dense, workers int) (*linalg.Cholesky, int, error) {
	m := schur.Rows
	scale := 1e-13
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		var sfac *linalg.Cholesky
		sfac, err = w.Factor(schur, workers)
		if err == nil {
			return sfac, attempt, nil
		}
		dmax := 0.0
		for i := 0; i < m; i++ {
			if a := math.Abs(schur.At(i, i)); a > dmax {
				dmax = a
			}
		}
		reg := scale * (1 + dmax)
		for i := 0; i < m; i++ {
			schur.Add(i, i, reg)
		}
		scale *= 100
	}
	return nil, 8, err
}

// solveDirection computes the search direction for centering parameter σ,
// including the Mehrotra corrector terms (st.corr/st.corrLP, prepared by
// buildCorrector) when useCorr is set.
//
//sdpvet:hotpath
func (st *ipmState) solveDirection(sfac *linalg.Cholesky, d *direction, sigma, mu float64, useCorr bool) {
	p := st.p
	if useCorr {
		for bidx := range st.corrSinv {
			st.mm.MatMulInto(st.corrSinv[bidx], st.corr[bidx], st.sinv[bidx], st.workers)
		}
	}
	// Right-hand side: rp − A(σμS⁻¹ − X) + A(X Rd S⁻¹) + A(corr·S⁻¹), plus
	// the LP analogues. Each rhs[k] only reads shared state, so the
	// constraint sweep splits cleanly across the pool.
	st.dSigmaMu = sigma * mu
	st.dUseCorr = useCorr
	parallel.For(st.workers, st.m, 64, st.rhsFn)
	copy(d.dy, st.rhs)
	sfac.SolveVec(d.dy)

	// ΔS = Rd − Aᵀ(Δy).
	p.applyAT(d.dy, d.ds, d.dslp)
	for bidx := range d.ds {
		ds := d.ds[bidx]
		ds.Scale(-1)
		ds.AddScaled(1, st.rd[bidx])
	}
	for i := range d.dslp {
		d.dslp[i] = st.rdlp[i] - d.dslp[i]
	}

	// ΔX = σμS⁻¹ − X − H(X ΔS S⁻¹ + corr S⁻¹).
	for bidx := range d.dx {
		st.mm.MatMulInto(st.tmp1[bidx], st.x[bidx], d.ds[bidx], st.workers)
		st.mm.MatMulInto(st.tmp2[bidx], st.tmp1[bidx], st.sinv[bidx], st.workers)
		t := st.tmp2[bidx]
		if useCorr {
			t.AddScaled(1, st.corrSinv[bidx])
		}
		dx := d.dx[bidx]
		dx.CopyFrom(st.sinv[bidx])
		dx.Scale(sigma * mu)
		dx.AddScaled(-1, st.x[bidx])
		dx.AddScaled(-1, t)
		dx.Symmetrize()
	}
	for i := range d.dxlp {
		v := sigma*mu/st.slp[i] - st.xlp[i] - st.xlp[i]/st.slp[i]*d.dslp[i]
		if useCorr {
			v -= st.corrLP[i] / st.slp[i]
		}
		d.dxlp[i] = v
	}
}

// rhsRows fills st.rhs[klo:khi] for the current direction solve, reading the
// dispatch fields dSigmaMu/dUseCorr set by solveDirection. An off-diagonal
// entry stands for both of its orientations, (I, J) first.
//
//sdpvet:hotpath
func (st *ipmState) rhsRows(klo, khi int) {
	p := st.p
	sigmaMu, useCorr := st.dSigmaMu, st.dUseCorr
	for k := klo; k < khi; k++ {
		v := st.rp[k]
		for bidx, es := range p.Cons[k].PSD {
			if len(es) == 0 {
				continue
			}
			sinv, x := st.sinv[bidx], st.x[bidx]
			xrd := st.xrdsinv[bidx]
			var cs *linalg.Dense
			if useCorr {
				cs = st.corrSinv[bidx]
			}
			n := x.Cols
			for _, e := range es {
				at := [2]int{e.I*n + e.J, e.J*n + e.I}
				orient := at[:1]
				if e.I != e.J {
					orient = at[:]
				}
				for _, ij := range orient {
					v -= e.V * (sigmaMu*sinv.Data[ij] - x.Data[ij])
					v += e.V * xrd.Data[ij]
					if useCorr {
						v += e.V * cs.Data[ij]
					}
				}
			}
		}
		for _, e := range p.Cons[k].LP {
			i := e.I
			v -= e.V * (sigmaMu/st.slp[i] - st.xlp[i])
			v += e.V * (st.xlp[i] / st.slp[i]) * st.rdlp[i]
			if useCorr {
				v += e.V * st.corrLP[i] / st.slp[i]
			}
		}
		st.rhs[k] = v
	}
}

// maxStepPSD returns the largest α such that P + α·ΔP ⪰ 0 for block bidx,
// using λmin(L⁻¹ ΔP L⁻ᵀ) where P = LLᵀ. Both triangular solves run as
// row-sweeps over contiguous storage (ΔP is symmetric, so its rows are its
// columns), and the eigenvalue-only λmin reuses the block's workspace; every
// step is bitwise deterministic across worker counts.
//
//sdpvet:hotpath
func (st *ipmState) maxStepPSD(chol *linalg.Cholesky, dp *linalg.Dense, bidx int) float64 {
	m1, m2 := st.tmp1[bidx], st.tmp2[bidx]
	// m1 = Wᵀ where W = L⁻¹ ΔP: row j of ΔP is column j, so the row solve
	// produces the columns of W as rows.
	m1.CopyFrom(dp)
	chol.ForwardSolveRows(m1, st.workers)
	// T = W L⁻ᵀ, i.e. Tᵀ = L⁻¹ Wᵀ: the rows of m1ᵀ are the columns of Wᵀ;
	// row-solving them yields the rows of T.
	m1.TransposeInto(m2)
	chol.ForwardSolveRows(m2, st.workers)
	m2.Symmetrize()
	lmin, err := st.eigW[bidx].Min(m2, st.workers)
	if err != nil {
		return 0
	}
	if lmin >= 0 {
		return math.Inf(1)
	}
	return -1 / lmin
}

//sdpvet:hotpath
func (st *ipmState) maxStepPrimal(d *direction) float64 {
	a := math.Inf(1)
	for bidx := range st.x {
		if s := st.maxStepPSD(st.xchol[bidx], d.dx[bidx], bidx); s < a {
			a = s
		}
	}
	for i := range st.xlp {
		if d.dxlp[i] < 0 {
			if s := -st.xlp[i] / d.dxlp[i]; s < a {
				a = s
			}
		}
	}
	return math.Min(1, st.opt.Gamma*a)
}

//sdpvet:hotpath
func (st *ipmState) maxStepDual(d *direction) float64 {
	a := math.Inf(1)
	for bidx := range st.s {
		if s := st.maxStepPSD(st.schol[bidx], d.ds[bidx], bidx); s < a {
			a = s
		}
	}
	for i := range st.slp {
		if d.dslp[i] < 0 {
			if s := -st.slp[i] / d.dslp[i]; s < a {
				a = s
			}
		}
	}
	return math.Min(1, st.opt.Gamma*a)
}

//sdpvet:hotpath
func (st *ipmState) safeguardPrimal(d *direction, a float64) float64 {
	for try := 0; try < 30; try++ {
		ok := true
		for bidx := range st.x {
			x2 := st.tmp1[bidx]
			x2.CopyFrom(st.x[bidx])
			x2.AddScaled(a, d.dx[bidx])
			x2.Symmetrize()
			if _, err := st.tryCholW[bidx].Factor(x2, st.workers); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return a
		}
		a *= 0.8
	}
	return 0
}

//sdpvet:hotpath
func (st *ipmState) safeguardDual(d *direction, a float64) float64 {
	for try := 0; try < 30; try++ {
		ok := true
		for bidx := range st.s {
			s2 := st.tmp1[bidx]
			s2.CopyFrom(st.s[bidx])
			s2.AddScaled(a, d.ds[bidx])
			s2.Symmetrize()
			if _, err := st.tryCholW[bidx].Factor(s2, st.workers); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return a
		}
		a *= 0.8
	}
	return 0
}

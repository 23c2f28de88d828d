// Package optimize provides the unconstrained nonlinear optimizers used by
// the baseline floorplanners (AR, PP, the analytical method) and by the
// legalizer's smoothed shape optimization. The paper's baselines use
// PyTorch-Minimize's BFGS; we provide L-BFGS with a strong-Wolfe line search,
// the same algorithm family.
package optimize

import (
	"context"
	"math"

	"sdpfloor/internal/trace"
)

// Objective evaluates f(x) and writes ∇f(x) into grad (len(grad)==len(x)).
type Objective func(x, grad []float64) float64

// Options configure Minimize.
type Options struct {
	MaxIter  int     // iteration cap (default 200)
	GradTol  float64 // stop when ‖∇f‖∞ ≤ GradTol (default 1e-6)
	Memory   int     // L-BFGS history length (default 10)
	StepTol  float64 // stop when the step is smaller than this (default 1e-12)
	MaxEvals int     // function evaluation cap (default 10·MaxIter)
	// Context, when non-nil, is checked at every iteration boundary; on
	// cancellation Minimize stops and returns the best point so far with
	// Result.Err set to the context error.
	Context context.Context
	// Trace, when non-nil and enabled, receives structured telemetry
	// ("lbfgs" events): one "iter" record per accepted step (f, ‖∇f‖∞,
	// step length, cumulative Wolfe line-search evaluations) and exactly
	// one "final" record on every exit path. See internal/trace.
	Trace trace.Recorder
}

func (o *Options) setDefaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	if o.GradTol == 0 {
		o.GradTol = 1e-6
	}
	if o.Memory == 0 {
		o.Memory = 10
	}
	if o.StepTol == 0 {
		o.StepTol = 1e-12
	}
	if o.MaxEvals == 0 {
		o.MaxEvals = 10 * o.MaxIter
	}
}

// Result reports the outcome of a minimization.
type Result struct {
	X          []float64
	F          float64
	GradNorm   float64
	Iterations int
	Evals      int
	Converged  bool  // gradient tolerance reached
	Err        error // non-nil when the run was cancelled (partial result)
}

// Minimize runs L-BFGS from x0 and returns the best point found. The
// objective must be continuously differentiable (the callers smooth any
// non-differentiable terms before calling).
func Minimize(f Objective, x0 []float64, opt Options) Result {
	opt.setDefaults()
	n := len(x0)
	x := append([]float64(nil), x0...)
	g := make([]float64, n)
	evals := 0
	eval := func(pt, grad []float64) float64 {
		evals++
		return f(pt, grad)
	}
	fx := eval(x, g)

	// L-BFGS history ring.
	sHist := make([][]float64, 0, opt.Memory)
	yHist := make([][]float64, 0, opt.Memory)
	rhoHist := make([]float64, 0, opt.Memory)

	d := make([]float64, n)
	res := Result{}
	tr := trace.Start(opt.Trace, "lbfgs", func() []trace.Field {
		return []trace.Field{
			{Key: "n", Val: float64(n)},
			{Key: "gradTol", Val: opt.GradTol},
			{Key: "maxIter", Val: float64(opt.MaxIter)},
		}
	})
	// Deferred so convergence, cancellation, line-search failure, and the
	// iteration/eval caps all close the trace with one "final".
	defer func() {
		st := "stopped"
		switch {
		case res.Err != nil:
			st = "cancelled"
		case res.Converged:
			st = "converged"
		}
		tr.End(res.Iterations, st, func() []trace.Field {
			return []trace.Field{
				{Key: "f", Val: res.F},
				{Key: "gnorm", Val: res.GradNorm},
				{Key: "evals", Val: float64(res.Evals)},
			}
		})
	}()
	for iter := 0; iter < opt.MaxIter && evals < opt.MaxEvals; iter++ {
		if opt.Context != nil {
			if err := opt.Context.Err(); err != nil {
				res.Err = err
				break
			}
		}
		res.Iterations = iter
		gnorm := normInf(g)
		if gnorm <= opt.GradTol {
			res.Converged = true
			break
		}

		// Two-loop recursion: d = −H·g.
		copy(d, g)
		alpha := make([]float64, len(sHist))
		for i := len(sHist) - 1; i >= 0; i-- {
			alpha[i] = rhoHist[i] * dot(sHist[i], d)
			axpy(-alpha[i], yHist[i], d)
		}
		if len(sHist) > 0 {
			last := len(sHist) - 1
			gammaK := dot(sHist[last], yHist[last]) / dot(yHist[last], yHist[last])
			scale(gammaK, d)
		}
		for i := 0; i < len(sHist); i++ {
			beta := rhoHist[i] * dot(yHist[i], d)
			axpy(alpha[i]-beta, sHist[i], d)
		}
		scale(-1, d)

		// Ensure descent; fall back to steepest descent otherwise.
		dg := dot(d, g)
		if dg >= 0 {
			copy(d, g)
			scale(-1, d)
			dg = -dot(g, g)
			sHist, yHist, rhoHist = sHist[:0], yHist[:0], rhoHist[:0]
		}

		step, fNew, gNew, _, ok := wolfeLineSearch(eval, x, d, fx, dg, opt.MaxEvals-evals)
		if !ok || step < opt.StepTol {
			break
		}

		// Update history.
		s := make([]float64, n)
		yv := make([]float64, n)
		for i := 0; i < n; i++ {
			s[i] = step * d[i]
			yv[i] = gNew[i] - g[i]
		}
		sy := dot(s, yv)
		if sy > 1e-12*norm2(s)*norm2(yv) {
			if len(sHist) == opt.Memory {
				sHist = sHist[1:]
				yHist = yHist[1:]
				rhoHist = rhoHist[1:]
			}
			sHist = append(sHist, s)
			yHist = append(yHist, yv)
			rhoHist = append(rhoHist, 1/sy)
		}

		axpy(step, d, x)
		copy(g, gNew)
		fx = fNew
		tr.Iter(iter, func() []trace.Field {
			return []trace.Field{
				{Key: "f", Val: fx},
				{Key: "gnorm", Val: normInf(g)},
				{Key: "step", Val: step},
				{Key: "evals", Val: float64(evals)},
			}
		})
	}
	res.X = x
	res.F = fx
	res.GradNorm = normInf(g)
	res.Evals = evals
	if res.GradNorm <= opt.GradTol {
		res.Converged = true
	}
	return res
}

// wolfeLineSearch finds a step satisfying the strong Wolfe conditions using
// bracketing plus bisection/interpolation (Nocedal & Wright alg. 3.5/3.6).
func wolfeLineSearch(eval func(x, g []float64) float64, x, d []float64,
	f0, dg0 float64, evalBudget int) (step, fOut float64, gOut []float64, evals int, ok bool) {

	const c1, c2 = 1e-4, 0.9
	n := len(x)
	xt := make([]float64, n)
	gt := make([]float64, n)
	phi := func(a float64) (float64, float64) {
		for i := 0; i < n; i++ {
			xt[i] = x[i] + a*d[i]
		}
		ft := eval(xt, gt)
		evals++
		return ft, dot(gt, d)
	}

	maxAlpha := 1e10
	alphaPrev, fPrev := 0.0, f0
	alpha := 1.0
	var alphaLo, alphaHi, fLo float64
	stage2 := false

	for it := 0; it < 30 && evals < evalBudget; it++ {
		ft, dgt := phi(alpha)
		if math.IsNaN(ft) || math.IsInf(ft, 0) {
			alpha = 0.5 * (alphaPrev + alpha)
			continue
		}
		if ft > f0+c1*alpha*dg0 || (it > 0 && ft >= fPrev) {
			alphaLo, alphaHi, fLo = alphaPrev, alpha, fPrev
			stage2 = true
			break
		}
		if math.Abs(dgt) <= -c2*dg0 {
			return alpha, ft, append([]float64(nil), gt...), evals, true
		}
		if dgt >= 0 {
			alphaLo, alphaHi, fLo = alpha, alphaPrev, ft
			stage2 = true
			break
		}
		alphaPrev, fPrev = alpha, ft
		alpha = math.Min(2*alpha, maxAlpha)
	}
	if !stage2 {
		return 0, f0, nil, evals, false
	}

	// Zoom phase (bisection; robust, and the objectives here are cheap).
	for it := 0; it < 40 && evals < evalBudget; it++ {
		alpha = 0.5 * (alphaLo + alphaHi)
		ft, dgt := phi(alpha)
		if ft > f0+c1*alpha*dg0 || ft >= fLo {
			alphaHi = alpha
		} else {
			if math.Abs(dgt) <= -c2*dg0 {
				return alpha, ft, append([]float64(nil), gt...), evals, true
			}
			if dgt*(alphaHi-alphaLo) >= 0 {
				alphaHi = alphaLo
			}
			alphaLo, fLo = alpha, ft
		}
		if math.Abs(alphaHi-alphaLo) < 1e-14*(1+alphaLo) {
			break
		}
	}
	// Accept the best sufficient-decrease point even without curvature.
	ft, _ := phi(alphaLo)
	if alphaLo > 0 && ft < f0 {
		return alphaLo, ft, append([]float64(nil), gt...), evals, true
	}
	return 0, f0, nil, evals, false
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func axpy(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

func scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

func norm2(x []float64) float64 { return math.Sqrt(dot(x, x)) }

func normInf(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

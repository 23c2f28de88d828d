package core

import (
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/sdp"
)

// warmState carries solver state across the sub-problem-1 solve sequence of
// one convex-iteration run. Consecutive SDPs differ only in the objective
// (direction matrix, adaptive B) and in a slowly changing working set of
// distance-pair and outline-side constraints, so the previous solution is
// an excellent starting point for the next solve: the PSD block and its
// dual slack carry over directly (the block dimension n+2 never changes),
// while the multipliers and LP slacks are projected onto the new
// constraint layout. The IPM additionally keeps an assembly/equilibration
// cache for runs of solves with an unchanged working set. The ADMM penalty is deliberately NOT resumed: the terminal
// adapted penalty is tuned for the previous problem's endgame and measurably
// slows — in bad cases stalls — the transient on the changed objective,
// while re-adapting from the default recovers quickly from the warm iterate.
type warmState struct {
	sol   *sdp.Solution // last usable solution (duals against the original problem)
	pairs []pair        // working set that solution was solved with

	reuse      *sdp.IPMReuse // constraint-assembly cache (IPM only)
	reusePairs []pair        // working set the cache was built for
}

// noteSolution records sol as the warm-start source for the next solve.
// Solutions from failed or cancelled solves are not recorded; iterate-limit
// terminations are — their iterate is inexact but still far closer to the
// next solution than a cold start.
func (b *builder) noteSolution(sol *sdp.Solution, pairs []pair) {
	if b.opt.NoWarmStart || sol == nil {
		return
	}
	switch sol.Status {
	case sdp.StatusOptimal, sdp.StatusIterationLimit:
	default:
		return
	}
	if b.warm == nil {
		b.warm = &warmState{}
	}
	b.warm.sol = sol
	b.warm.pairs = append([]pair(nil), pairs...) // snapshot: caller mutates its slice
}

// prefixCons returns the number of constraints buildProblem emits before the
// pair block: the 3 identity-block equalities plus the PPM equalities (two
// per fixed module and one pairwise dot product per fixed pair, i incl. j).
func (b *builder) prefixCons() int {
	f := 0
	for _, m := range b.nl.Modules {
		if m.Fixed {
			f++
		}
	}
	return 3 + 2*f + f*(f+1)/2
}

// suffixCons returns the number of constraints (each with one LP slack)
// buildProblem emits after the working set: the distance caps.
func (b *builder) suffixCons() int { return len(b.opt.DistanceCaps) }

// projectWarm maps the previous solution's dual vector and LP block onto the
// constraint layout of the new working set. buildProblem's ordering is
// [prefix | one row+slack per working-set element | suffix], with prefix
// and suffix invariant across solves, so rows map by position there and by
// element identity (distance pair or outline side) in the middle. An
// element new to the working set gets multiplier 0 and a primal slack read
// off the current iterate (so A(X) ≈ b holds on the fresh row); dropped
// elements simply lose their entries. Returns nils when the recorded
// solution does not match the expected layout (e.g. it came from a
// differently configured builder), which cold-starts the solve.
func (b *builder) projectWarm(w *warmState, pairs []pair) (y, xlp, slp []float64) {
	prev := w.sol
	pre, suf := b.prefixCons(), b.suffixCons()
	p0, p1 := len(w.pairs), len(pairs)
	if len(prev.Y) != pre+p0+suf || len(prev.XLP) != p0+suf || len(prev.SLP) != p0+suf {
		return nil, nil, nil
	}
	idx := make(map[pair]int, p0)
	for i, pr := range w.pairs {
		idx[pr] = i
	}
	y = make([]float64, pre+p1+suf)
	xlp = make([]float64, p1+suf)
	slp = make([]float64, p1+suf)
	copy(y[:pre], prev.Y[:pre])
	z := prev.X[0]
	for t, pr := range pairs {
		if t0, ok := idx[pr]; ok {
			y[pre+t] = prev.Y[pre+t0]
			xlp[t] = prev.XLP[t0]
			slp[t] = prev.SLP[t0]
		} else {
			xlp[t] = maxf(b.rowSlack(z, pr), 1e-8)
			slp[t] = 1
		}
	}
	copy(y[pre+p1:], prev.Y[pre+p0:])
	copy(xlp[p1:], prev.XLP[p0:])
	copy(slp[p1:], prev.SLP[p0:])
	return y, xlp, slp
}

// reuseFor returns the IPM assembly cache to pass for a solve over pairs,
// rotating in a fresh handle whenever the working set changed (the cache is
// only valid across solves with identical constraints; see sdp.IPMReuse).
func (w *warmState) reuseFor(pairs []pair) *sdp.IPMReuse {
	if w.reuse == nil || !pairsEqual(w.reusePairs, pairs) {
		w.reuse = &sdp.IPMReuse{}
		w.reusePairs = append([]pair(nil), pairs...)
	}
	return w.reuse
}

func pairsEqual(a, b []pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// warmBlocks returns clones-by-reference of the previous PSD iterate and its
// dual slack when their dimension matches the current problem (it always
// does within one Solve; the guard protects against misuse).
func (b *builder) warmBlocks(prev *sdp.Solution) (x0, s0 []*linalg.Dense) {
	if len(prev.X) != 1 || prev.X[0].Rows != b.dim {
		return nil, nil
	}
	if len(prev.S) != 1 || prev.S[0].Rows != b.dim {
		return prev.X, nil
	}
	return prev.X, prev.S
}

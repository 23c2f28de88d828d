package core

import (
	"math"
	"sort"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/linalg"
	"sdpfloor/internal/netlist"
	"sdpfloor/internal/sdp"
)

// pair identifies one row of the lazy working set. With j ≥ 0 it is the
// distance bound of the module pair i < j; with j < 0 it is one
// fixed-outline side of module i's center, j being one of the side
// constants below.
type pair struct{ i, j int }

// The four outline sides of a module center, as stored in pair.j.
const (
	sideMinX = -1 - iota // xᵢ ≥ MinX + inset
	sideMaxX             // xᵢ ≤ MaxX − inset
	sideMinY             // yᵢ ≥ MinY + inset
	sideMaxY             // yᵢ ≤ MaxY − inset
)

// isSide reports whether p is an outline side rather than a distance pair.
func (p pair) isSide() bool { return p.j < 0 }

// builder assembles sub-problem-1 SDP instances for one netlist. It is
// created once per Solve call and reused across convex iterations (only the
// objective and the constraint working set change).
type builder struct {
	nl     *netlist.Netlist
	opt    *Options
	n      int
	dim    int // n + 2
	radii  []float64
	aspect []float64
	baseA  *linalg.Dense
	deg    []float64
	padA   *linalg.Dense // n×(#pads); nil when there are no pads
	// padRowSum[i] = Σ_j Ā_ij; padMoment[i] = Σ_j Ā_ij·x̄_j (vector).
	padRowSum []float64
	padMoment []geom.Point
	padConst  float64 // Σ_ij Ā_ij‖x̄_j‖², additive objective constant
	// slackCount tracks consecutive convex iterations in which a working-set
	// pair's constraint stayed far from active (lazy-constraint dropping).
	slackCount map[pair]int
	// warm carries the previous sub-problem solution and reuse caches across
	// the solve sequence (nil until the first solve; see warmstart.go).
	warm *warmState
	// subSolves/warmStarts count sub-problem-1 solves and how many of them
	// consumed a warm start — surfaced in Result and the service metrics.
	subSolves, warmStarts int
	// arena supplies iteration-scoped solver scratch, shared by every
	// sub-problem solve of the sequence so that repeated solves of
	// same-shaped problems allocate nothing in the steady state. Solves are
	// strictly sequential within a builder, which the arena requires.
	arena *linalg.Arena
}

func newBuilder(nl *netlist.Netlist, opt *Options) *builder {
	n := nl.N()
	b := &builder{
		nl:     nl,
		opt:    opt,
		n:      n,
		dim:    n + 2,
		radii:  nl.Radii(opt.NonSquare),
		aspect: make([]float64, n),
		baseA:  nl.Adjacency(),
		arena:  linalg.NewArena(),
	}
	for i, m := range nl.Modules {
		b.aspect[i] = m.MaxAspect
	}
	b.deg = netlist.Degrees(b.baseA)
	if len(nl.Pads) > 0 {
		b.padA = nl.PadAdjacency()
		b.padRowSum = make([]float64, n)
		b.padMoment = make([]geom.Point, n)
		//sdpvet:ignore ctxloop bounded one-pass pad-adjacency accumulation; Options.Context gates the iteration loops downstream
		for i := 0; i < n; i++ {
			for j, p := range nl.Pads {
				w := b.padA.At(i, j)
				if w == 0 {
					continue
				}
				b.padRowSum[i] += w
				b.padMoment[i] = b.padMoment[i].Add(p.Pos.Scale(w))
				b.padConst += w * (p.Pos.X*p.Pos.X + p.Pos.Y*p.Pos.Y)
			}
		}
	}
	return b
}

// objectiveC builds the (n+2)×(n+2) objective matrix: B embedded in the G
// block, the boundary-pin terms of Eq. (21), and the rank penalty α·W.
func (b *builder) objectiveC(bmat, w *linalg.Dense, alpha float64) *linalg.Dense {
	c := linalg.NewDense(b.dim, b.dim)
	for i := 0; i < b.n; i++ {
		for j := 0; j < b.n; j++ {
			c.Set(2+i, 2+j, bmat.At(i, j))
		}
	}
	if b.padA != nil {
		for i := 0; i < b.n; i++ {
			if b.padRowSum[i] == 0 {
				continue
			}
			// Σ_j Ā_ij·D̄_ij = (Σ_j Ā_ij)·G_ii − 2·(Σ_j Ā_ij x̄_j)ᵀxᵢ + const.
			c.Add(2+i, 2+i, b.padRowSum[i])
			c.Add(0, 2+i, -b.padMoment[i].X)
			c.Add(2+i, 0, -b.padMoment[i].X)
			c.Add(1, 2+i, -b.padMoment[i].Y)
			c.Add(2+i, 1, -b.padMoment[i].Y)
		}
	}
	if alpha != 0 && w != nil {
		c.AddScaled(alpha, w)
	}
	return c
}

// bound returns the squared-distance lower bound for a pair under the
// configured constraint model.
func (b *builder) bound(p pair) float64 {
	return distanceBound(p.i, p.j, b.radii, b.aspect, b.baseA, b.deg, b.opt.NonSquare)
}

// outlineInset returns how far module i's center must stay from the outline
// boundary: half its narrowest legal dimension √(sᵢ/kᵢ)/2.
func (b *builder) outlineInset(i int) float64 {
	return math.Sqrt(b.nl.Modules[i].MinArea/b.aspect[i]) / 2
}

// sideRow returns the single X-block entry and the right-hand side of
// outline side p: the row reads ⟨E, Z⟩ ≥ rhs with ⟨E, Z⟩ = ±xᵢ or ±yᵢ.
func (b *builder) sideRow(p pair) (sdp.Entry, float64) {
	o, inset := b.opt.Outline, b.outlineInset(p.i)
	switch p.j {
	case sideMinX:
		return sdp.Entry{I: 0, J: 2 + p.i, V: 0.5}, o.MinX + inset
	case sideMaxX:
		return sdp.Entry{I: 0, J: 2 + p.i, V: -0.5}, -(o.MaxX - inset)
	case sideMinY:
		return sdp.Entry{I: 1, J: 2 + p.i, V: 0.5}, o.MinY + inset
	default:
		return sdp.Entry{I: 1, J: 2 + p.i, V: -0.5}, -(o.MaxY - inset)
	}
}

// buildProblem assembles the SDP for the given objective matrix and
// working set. The rows come in the order [prefix | working set | distance
// caps]: the identity-block and PPM equalities, one inequality per
// working-set element, then the caps.
func (b *builder) buildProblem(c *linalg.Dense, pairs []pair) *sdp.Problem {
	var cons []sdp.Constraint
	// Identity block: Z₀₀ = 1, Z₁₁ = 1, Z₀₁ = 0 (Eq. 9).
	cons = append(cons,
		sdp.Constraint{PSD: [][]sdp.Entry{{{I: 0, J: 0, V: 1}}}, B: 1},
		sdp.Constraint{PSD: [][]sdp.Entry{{{I: 1, J: 1, V: 1}}}, B: 1},
		sdp.Constraint{PSD: [][]sdp.Entry{{{I: 0, J: 1, V: 0.5}}}, B: 0},
	)
	// PPM equalities (Eqs. 23–24).
	var fixed []int
	for i, m := range b.nl.Modules {
		if !m.Fixed {
			continue
		}
		fixed = append(fixed, i)
		cons = append(cons,
			sdp.Constraint{PSD: [][]sdp.Entry{{{I: 0, J: 2 + i, V: 0.5}}}, B: m.FixedPos.X},
			sdp.Constraint{PSD: [][]sdp.Entry{{{I: 1, J: 2 + i, V: 0.5}}}, B: m.FixedPos.Y},
		)
	}
	for a := 0; a < len(fixed); a++ {
		for bidx := a; bidx < len(fixed); bidx++ {
			i, j := fixed[a], fixed[bidx]
			pi, pj := b.nl.Modules[i].FixedPos, b.nl.Modules[j].FixedPos
			dotv := pi.X*pj.X + pi.Y*pj.Y
			v := 0.5
			if i == j {
				v = 1
			}
			cons = append(cons, sdp.Constraint{
				PSD: [][]sdp.Entry{{{I: 2 + i, J: 2 + j, V: v}}}, B: dotv,
			})
		}
	}

	// Inequalities get one LP slack each.
	lp := 0
	addIneq := func(es []sdp.Entry, rhs float64) {
		cons = append(cons, sdp.Constraint{
			PSD: [][]sdp.Entry{es},
			LP:  []sdp.LPEntry{{I: lp, V: -1}},
			B:   rhs,
		})
		lp++
	}
	// The working set: distance constraints D_ij ≥ bound (Eq. 11 / Eq. 26)
	// and fixed-outline sides on the X block.
	for _, p := range pairs {
		if p.isSide() {
			e, rhs := b.sideRow(p)
			addIneq([]sdp.Entry{e}, rhs)
			continue
		}
		es := []sdp.Entry{
			{I: 2 + p.i, J: 2 + p.i, V: 1},
			{I: 2 + p.j, J: 2 + p.j, V: 1},
			{I: 2 + p.i, J: 2 + p.j, V: -1},
		}
		addIneq(es, b.bound(p))
	}
	// Proximity caps D_ij ≤ MaxDist² (Section IV-D's distance control).
	for _, cap := range b.opt.DistanceCaps {
		es := []sdp.Entry{
			{I: 2 + cap.I, J: 2 + cap.I, V: -1},
			{I: 2 + cap.J, J: 2 + cap.J, V: -1},
			{I: 2 + cap.I, J: 2 + cap.J, V: 1},
		}
		addIneq(es, -cap.MaxDist*cap.MaxDist)
	}

	return &sdp.Problem{
		PSDDims: []int{b.dim},
		LPDim:   lp,
		C:       []*linalg.Dense{c},
		CLP:     make([]float64, lp),
		Cons:    cons,
	}
}

// allPairs returns the full working set: every unordered module pair and,
// under a fixed outline, every side of every non-fixed module.
func (b *builder) allPairs() []pair {
	out := make([]pair, 0, b.n*(b.n-1)/2+4*b.n)
	for i := 0; i < b.n; i++ {
		for j := i + 1; j < b.n; j++ {
			out = append(out, pair{i, j})
		}
	}
	return append(out, b.sides()...)
}

// sides returns every outline side of every non-fixed module in module
// order (none without an outline; fixed modules sit at their PPM position).
func (b *builder) sides() []pair {
	if b.opt.Outline == nil {
		return nil
	}
	var out []pair
	for i, m := range b.nl.Modules {
		if !m.Fixed {
			out = append(out, pair{i, sideMinX}, pair{i, sideMaxX}, pair{i, sideMinY}, pair{i, sideMaxY})
		}
	}
	return out
}

// seedPairs returns the initial lazy working set: the 3n most strongly
// connected pairs (these are the ones the objective pulls together, so
// their distance constraints activate first; the violation rounds add any
// others). Seeding with every connected pair would defeat the working set
// on dense adjacencies, where nearly all pairs are connected.
func (b *builder) seedPairs() []pair {
	type wp struct {
		p pair
		w float64
	}
	var all []wp
	for i := 0; i < b.n; i++ {
		for j := i + 1; j < b.n; j++ {
			if w := b.baseA.At(i, j); w > 0 {
				all = append(all, wp{pair{i, j}, w})
			}
		}
	}
	sort.Slice(all, func(a, c int) bool { return all[a].w > all[c].w })
	limit := 3 * b.n
	if limit > len(all) {
		limit = len(all)
	}
	out := make([]pair, 0, limit)
	for _, e := range all[:limit] {
		out = append(out, e.p)
	}
	return out
}

// violatedPairs scans the constraints against z and returns those not
// already in have that z violates: up to maxAdd of the most-violated pairs
// (relative violation), then every outline side that z violates by more
// than 1e-6 of the outline extent on its axis. Capping the pair additions
// keeps the working set from exploding on the first iterations, where the
// trace heuristic collapses the layout and violates every pair at once; the
// remaining violations resolve or re-enter over subsequent rounds. Sides
// are at most 4n single-entry rows, so all of them enter at once.
func (b *builder) violatedPairs(z *linalg.Dense, have map[pair]bool, maxAdd int) []pair {
	type viol struct {
		p pair
		v float64 // relative violation
	}
	var out []viol
	for i := 0; i < b.n; i++ {
		for j := i + 1; j < b.n; j++ {
			p := pair{i, j}
			if have[p] {
				continue
			}
			d := z.At(2+i, 2+i) + z.At(2+j, 2+j) - 2*z.At(2+i, 2+j)
			bound := b.bound(p)
			if d < bound*(1-1e-6) {
				out = append(out, viol{p, (bound - d) / bound})
			}
		}
	}
	sort.Slice(out, func(a, c int) bool { return out[a].v > out[c].v })
	if maxAdd > 0 && len(out) > maxAdd {
		out = out[:maxAdd]
	}
	ps := make([]pair, len(out))
	for i, v := range out {
		ps[i] = v.p
	}
	for _, p := range b.sides() {
		extent := b.opt.Outline.W()
		if p.j == sideMinY || p.j == sideMaxY {
			extent = b.opt.Outline.H()
		}
		if !have[p] && b.rowSlack(z, p) < -1e-6*extent {
			ps = append(ps, p)
		}
	}
	return ps
}

// rowSlack returns how far z satisfies working-set row p: D_ij − bound for
// a pair, ±coordinate − rhs for an outline side. Negative means violated.
func (b *builder) rowSlack(z *linalg.Dense, p pair) float64 {
	if p.isSide() {
		e, rhs := b.sideRow(p)
		return 2*e.V*z.At(e.I, e.J) - rhs
	}
	d := z.At(2+p.i, 2+p.i) + z.At(2+p.j, 2+p.j) - 2*z.At(2+p.i, 2+p.j)
	return d - b.bound(p)
}

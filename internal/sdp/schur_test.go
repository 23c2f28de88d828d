package sdp

import (
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/linalg"
)

// floorplanRows builds a problem with the row shapes of the floorplanning
// builder (internal/core) on n modules: the three identity-block rows, the
// PPM rows of the first `fixed` modules (two position rows each plus one
// Gram row per fixed pair), then one LP-slacked inequality per distance
// pair, outline side and distance cap. Pairs and caps are
// c·(eᵢ−eⱼ)(eᵢ−eⱼ)ᵀ, a side is one ±0.5 entry linking an identity column
// to a module column.
func floorplanRows(rng *rand.Rand, n, fixed, pairs, sides, caps int) *Problem {
	dim := 2 + n
	one := func(i, j int, v, b float64) Constraint {
		return Constraint{PSD: [][]Entry{{{I: i, J: j, V: v}}}, B: b}
	}
	cons := []Constraint{one(0, 0, 1, 1), one(1, 1, 1, 1), one(0, 1, 0.5, 0)}
	for i := 0; i < fixed; i++ {
		cons = append(cons, one(0, 2+i, 0.5, rng.Float64()), one(1, 2+i, 0.5, rng.Float64()))
	}
	for i := 0; i < fixed; i++ {
		for j := i; j < fixed; j++ {
			v := 0.5
			if i == j {
				v = 1
			}
			cons = append(cons, one(2+i, 2+j, v, rng.Float64()))
		}
	}
	lp := 0
	ineq := func(es []Entry, rhs float64) {
		cons = append(cons, Constraint{PSD: [][]Entry{es}, LP: []LPEntry{{I: lp, V: -1}}, B: rhs})
		lp++
	}
	pairOf := func() (int, int) {
		i := rng.Intn(n)
		j := (i + 1 + rng.Intn(n-1)) % n
		return 2 + i, 2 + j
	}
	for k := 0; k < pairs; k++ {
		i, j := pairOf()
		ineq([]Entry{{I: i, J: i, V: 1}, {I: j, J: j, V: 1}, {I: i, J: j, V: -1}}, 1+rng.Float64())
	}
	for k := 0; k < sides; k++ {
		v := 0.5
		if k%2 == 1 {
			v = -0.5
		}
		ineq([]Entry{{I: k % 2, J: 2 + rng.Intn(n), V: v}}, v*rng.Float64())
	}
	for k := 0; k < caps; k++ {
		i, j := pairOf()
		ineq([]Entry{{I: i, J: i, V: -1}, {I: j, J: j, V: -1}, {I: i, J: j, V: 1}}, -10)
	}
	return &Problem{
		PSDDims: []int{dim},
		LPDim:   lp,
		C:       []*linalg.Dense{linalg.Identity(dim)},
		CLP:     make([]float64, lp),
		Cons:    cons,
	}
}

// randomSPD returns R Rᵀ + I for a standard normal R.
func randomSPD(rng *rand.Rand, n int) *linalg.Dense {
	r := linalg.NewDense(n, n)
	for i := range r.Data {
		r.Data[i] = rng.NormFloat64()
	}
	out := linalg.NewDense(n, n)
	new(linalg.MatMulWork).MulABtInto(out, r, r, 1)
	for i := 0; i < n; i++ {
		out.Add(i, i, 1)
	}
	out.Symmetrize()
	return out
}

// schurAt prepares a state on p at a random interior iterate (seeded, so
// every worker count sees the same one) and returns its Schur complement.
func schurAt(t *testing.T, p *Problem, seed int64, workers int) (*ipmState, *linalg.Dense) {
	t.Helper()
	opt := IPMOptions{Workers: workers}
	opt.setDefaults()
	st := newIPMState(p, opt, nil)
	t.Cleanup(st.release)
	rng := rand.New(rand.NewSource(seed))
	for b, d := range p.PSDDims {
		st.x[b] = randomSPD(rng, d)
		st.s[b] = randomSPD(rng, d)
	}
	for i := range st.xlp {
		st.xlp[i] = 0.1 + rng.Float64()
		st.slp[i] = 0.1 + rng.Float64()
	}
	if !st.factorIterates() {
		t.Fatal("random iterate not positive definite")
	}
	return st, st.formSchur()
}

// denseSchur is the reference: M_kl = Σ_b tr(A_k X A_l S⁻¹) + Σ_i a_ki a_li xᵢ/sᵢ
// from dense constraint matrices.
func denseSchur(st *ipmState) *linalg.Dense {
	p, m := st.p, st.m
	ref := linalg.NewDense(m, m)
	var mm linalg.MatMulWork
	for b, d := range p.PSDDims {
		ax := make([]*linalg.Dense, m) // A_k X
		as := make([]*linalg.Dense, m) // A_k S⁻¹
		for k := range p.Cons {
			a := linalg.NewDense(d, d)
			if b < len(p.Cons[k].PSD) {
				for _, e := range p.Cons[k].PSD[b] {
					a.Add(e.I, e.J, e.V)
					if e.I != e.J {
						a.Add(e.J, e.I, e.V)
					}
				}
			}
			ax[k], as[k] = linalg.NewDense(d, d), linalg.NewDense(d, d)
			mm.MatMulInto(ax[k], a, st.x[b], 1)
			mm.MatMulInto(as[k], a, st.sinv[b], 1)
		}
		for k := 0; k < m; k++ {
			for l := 0; l < m; l++ {
				v := 0.0
				for i := 0; i < d; i++ {
					for j := 0; j < d; j++ {
						v += ax[k].At(i, j) * as[l].At(j, i)
					}
				}
				ref.Add(k, l, v)
			}
		}
	}
	lp := make([][]float64, m)
	for k := range p.Cons {
		lp[k] = make([]float64, p.LPDim)
		for _, e := range p.Cons[k].LP {
			lp[k][e.I] += e.V
		}
	}
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			for i := 0; i < p.LPDim; i++ {
				ref.Add(k, l, lp[k][i]*lp[l][i]*st.xlp[i]/st.slp[i])
			}
		}
	}
	return ref
}

func diffTerms(f *factored) int {
	n := 0
	for _, ts := range f.terms {
		for _, t := range ts {
			if t.diff {
				n++
			}
		}
	}
	return n
}

// TestFormSchurMatchesDense checks the factored Schur assembly against the
// dense definition, and that it is bitwise identical across worker counts.
// The floorplan rows cover every builder shape after equilibration (their
// pairs and caps must factor as single difference terms); the random rows
// take the per-entry path; the two-block rows check the per-block
// bookkeeping, including rows that stop short of the second block.
func TestFormSchurMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	twoBlock := randomFeasibleSDP(rng, 6, 12)
	twoBlock.PSDDims = append(twoBlock.PSDDims, 4)
	twoBlock.C = append(twoBlock.C, linalg.Identity(4))
	for k := 0; k < len(twoBlock.Cons); k += 2 {
		c := &twoBlock.Cons[k]
		c.PSD = append(c.PSD, []Entry{{I: k % 4, J: (k + 1) % 4, V: rng.NormFloat64()}, {I: 3, J: 3, V: 1}})
	}
	sets := []struct {
		name  string
		p     *Problem
		diffs int
	}{
		{"floorplan", equilibrate(floorplanRows(rng, 8, 2, 14, 6, 3)).p, 14 + 3},
		{"random", randomFeasibleSDP(rng, 12, 30), -1},
		{"two-block", twoBlock, -1},
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			if err := set.p.Validate(); err != nil {
				t.Fatal(err)
			}
			var ref *linalg.Dense
			for _, w := range []int{1, 2, 8} {
				st, got := schurAt(t, set.p, 5, w)
				if set.diffs >= 0 && diffTerms(st.fac) != set.diffs {
					t.Fatalf("%d difference terms, want %d", diffTerms(st.fac), set.diffs)
				}
				if ref == nil {
					want := denseSchur(st)
					scale := 0.0
					for _, v := range want.Data {
						scale = math.Max(scale, math.Abs(v))
					}
					for i, v := range got.Data {
						if math.Abs(v-want.Data[i]) > 1e-12*scale {
							t.Fatalf("M[%d,%d] = %v, dense reference %v (max|M| %v)",
								i/st.m, i%st.m, v, want.Data[i], scale)
						}
					}
					ref = got.Clone()
					continue
				}
				for i, v := range got.Data {
					if math.Float64bits(v) != math.Float64bits(ref.Data[i]) {
						t.Fatalf("w=%d: M[%d,%d] = %v, w=1 has %v (bitwise)", w, i/st.m, i%st.m, v, ref.Data[i])
					}
				}
			}
		})
	}
}

// TestDifferenceTermShapes pins which rows factor as one difference term.
func TestDifferenceTermShapes(t *testing.T) {
	cases := []struct {
		es   []Entry
		want bool
	}{
		{[]Entry{{I: 2, J: 2, V: 0.3}, {I: 5, J: 5, V: 0.3}, {I: 2, J: 5, V: -0.3}}, true},
		{[]Entry{{I: 5, J: 2, V: 0.7}, {I: 2, J: 2, V: -0.7}, {I: 5, J: 5, V: -0.7}}, true},
		{[]Entry{{I: 2, J: 2, V: 1}, {I: 5, J: 5, V: 1}, {I: 2, J: 5, V: 1}}, false},
		{[]Entry{{I: 2, J: 2, V: 1}, {I: 5, J: 5, V: 2}, {I: 2, J: 5, V: -1}}, false},
		{[]Entry{{I: 2, J: 2, V: 1}, {I: 5, J: 5, V: 1}, {I: 2, J: 6, V: -1}}, false},
		{[]Entry{{I: 2, J: 2, V: 1}, {I: 2, J: 2, V: 1}, {I: 2, J: 5, V: -1}}, false},
		{[]Entry{{I: 2, J: 2, V: 1}, {I: 5, J: 5, V: 1}, {I: 6, J: 6, V: -1}}, false},
		{[]Entry{{I: 2, J: 2, V: 1}, {I: 2, J: 5, V: -1}}, false},
	}
	for i, c := range cases {
		if _, ok := differenceTerm(c.es); ok != c.want {
			t.Errorf("case %d %v: difference term %v, want %v", i, c.es, ok, c.want)
		}
	}
}

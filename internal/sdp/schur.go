package sdp

import (
	"math/bits"

	"sdpfloor/internal/linalg"
	"sdpfloor/internal/parallel"
)

// The Schur complement of the HKM direction is
//
//	M_kl = Σ_blocks tr(A_k X A_l S⁻¹) + Σ_i a_ki a_li xᵢ/sᵢ.
//
// It is assembled from a factored form of each constraint's PSD part: a
// short list of outer products A_k = Σ_r p_r q_rᵀ with sparse p and q.
// With U_kr = X q_kr and W_kr = S⁻¹ p_kr, each PSD term is
//
//	tr(A_k X A_l S⁻¹) = Σ_r Σ_s (p_ls·U_kr)(q_ls·W_kr).
//
// A distance row c·(eᵢ−eⱼ)(eᵢ−eⱼ)ᵀ — the floorplan's pairs and caps — is
// one difference term, so a pair of distance rows costs one product
// instead of the 4×4 entry products of the unfactored sum; its U and W are
// filled once per iteration. Every other row takes one per-entry term per
// stored entry orientation, whose U and W are rows of X and S⁻¹, which
// costs exactly what the entry-pair sum costs.

// outerTerm is one outer product p qᵀ of a factored constraint. A per-entry
// term (diff unset) is p = v·e_i, q = e_j; a difference term is
// p = v·(e_i − e_j), q = e_i − e_j, and slot is its row in the filled U
// and W.
type outerTerm struct {
	i, j, slot int32
	diff       bool
	v          float64
}

// pair returns (pᵀU)(qᵀW) for this term's p and q, where U = u and W = w
// are the dense rows of another term.
func (t *outerTerm) pair(u, w []float64) float64 {
	if t.diff {
		return t.v * (u[t.i] - u[t.j]) * (w[t.i] - w[t.j])
	}
	return t.v * u[t.i] * w[t.j]
}

// pairScaled is pair with W = c·s, each element of W formed as c·s[x]
// where it is read.
func (t *outerTerm) pairScaled(u, s []float64, c float64) float64 {
	if t.diff {
		return t.v * (u[t.i] - u[t.j]) * (c*s[t.i] - c*s[t.j])
	}
	return t.v * u[t.i] * (c * s[t.j])
}

// factored is the factored form of every constraint, per PSD block: row k's
// terms in block b are terms[b][off[b][k]:off[b][k+1]], of which ndiff[b]
// are difference terms. lpCols[i] lists the rows with a coefficient on LP
// variable i, in row order.
type factored struct {
	terms  [][]outerTerm
	off    [][]int
	ndiff  []int
	lpCols [][]lpUse
}

// lpUse is one LP coefficient a_ki seen from its variable's column.
type lpUse struct {
	row int
	v   float64
}

// factorRows builds the factored form of p's constraints.
func factorRows(p *Problem) *factored {
	nb, m := len(p.PSDDims), len(p.Cons)
	f := &factored{terms: make([][]outerTerm, nb), off: make([][]int, nb), ndiff: make([]int, nb)}
	for b := 0; b < nb; b++ {
		entries := func(k int) []Entry {
			if b < len(p.Cons[k].PSD) {
				return p.Cons[k].PSD[b]
			}
			return nil
		}
		// Count first, so the term list is allocated once at its length.
		off := make([]int, m+1)
		for k := range p.Cons {
			n := 1
			if _, ok := differenceTerm(entries(k)); !ok {
				n = 0
				for _, e := range entries(k) {
					n++
					if e.I != e.J {
						n++
					}
				}
			}
			off[k+1] = off[k] + n
		}
		ts := make([]outerTerm, 0, off[m])
		for k := range p.Cons {
			if t, ok := differenceTerm(entries(k)); ok {
				t.slot = int32(f.ndiff[b])
				f.ndiff[b]++
				ts = append(ts, t)
				continue
			}
			for _, e := range entries(k) {
				ts = append(ts, outerTerm{i: int32(e.I), j: int32(e.J), v: e.V})
				if e.I != e.J {
					ts = append(ts, outerTerm{i: int32(e.J), j: int32(e.I), v: e.V})
				}
			}
		}
		f.terms[b], f.off[b] = ts, off
	}
	f.lpCols = make([][]lpUse, p.LPDim)
	for k := range p.Cons {
		for _, e := range p.Cons[k].LP {
			f.lpCols[e.I] = append(f.lpCols[e.I], lpUse{row: k, v: e.V})
		}
	}
	return f
}

// differenceTerm recognizes the entries of c·(eᵢ−eⱼ)(eᵢ−eⱼ)ᵀ, i ≠ j, in any
// order — (i,i,c), (j,j,c) and (i,j,−c) or (j,i,−c) — and returns its one
// difference term.
func differenceTerm(es []Entry) (outerTerm, bool) {
	if len(es) != 3 {
		return outerTerm{}, false
	}
	var diag [2]Entry
	var off Entry
	nd := 0
	for _, e := range es {
		if e.I != e.J {
			off = e
			continue
		}
		if nd == 2 {
			return outerTerm{}, false
		}
		diag[nd] = e
		nd++
	}
	if nd != 2 {
		return outerTerm{}, false
	}
	i, j, c := diag[0].I, diag[1].I, diag[0].V
	if i == j || !((off.I == i && off.J == j) || (off.I == j && off.J == i)) {
		return outerTerm{}, false
	}
	//sdpvet:ignore floateq the term must reproduce the row exactly: only bit-equal values factor
	if diag[1].V != c || off.V != -c {
		return outerTerm{}, false
	}
	return outerTerm{i: int32(i), j: int32(j), v: c, diff: true}, true
}

// checkoutFactors checks out the U and W rows of every block's difference
// terms. Both live in one arena vector per block whose length is rounded
// up to a power of two: the term count follows the working set, and an
// exact-length key would leave a buffer on the arena's free lists for
// every count a solve sequence passes through.
func (st *ipmState) checkoutFactors() {
	st.fu = make([]*linalg.Dense, st.nb)
	st.fw = make([]*linalg.Dense, st.nb)
	st.fbuf = make([][]float64, st.nb)
	for b, d := range st.p.PSDDims {
		t := st.fac.ndiff[b]
		n := t * d
		size := 0
		if n > 0 {
			size = 1 << bits.Len(uint(2*n-1))
		}
		buf := st.arena.Vec(size)
		st.fbuf[b] = buf
		st.fu[b] = &linalg.Dense{Rows: t, Cols: d, Data: buf[:n:n]}
		st.fw[b] = &linalg.Dense{Rows: t, Cols: d, Data: buf[n : 2*n : 2*n]}
	}
}

// fillFactors refreshes U = X q and W = S⁻¹ p of every difference term
// into row slot of st.fu[b] and st.fw[b]. X and S⁻¹ are symmetric, so
// their rows are their columns.
//
//sdpvet:hotpath
func (st *ipmState) fillFactors() {
	for b := range st.fac.terms {
		if st.fac.ndiff[b] == 0 {
			continue
		}
		st.fillB = b
		parallel.For(st.workers, len(st.fac.terms[b]), 64, st.fillFn)
	}
}

// fillRows fills the U/W rows of the difference terms among terms
// [lo, hi) of block st.fillB.
//
//sdpvet:hotpath
func (st *ipmState) fillRows(lo, hi int) {
	b := st.fillB
	x, sinv := st.x[b], st.sinv[b]
	for t := lo; t < hi; t++ {
		term := &st.fac.terms[b][t]
		if !term.diff {
			continue
		}
		ut, wt := st.fu[b].Row(int(term.slot)), st.fw[b].Row(int(term.slot))
		xi, xj := x.Row(int(term.i)), x.Row(int(term.j))
		si, sj := sinv.Row(int(term.i)), sinv.Row(int(term.j))
		for c := range ut {
			ut[c] = xi[c] - xj[c]
			wt[c] = term.v * (si[c] - sj[c])
		}
	}
}

// formSchur builds the Schur complement into the persistent st.schur. With
// symmetric data the HKM Schur complement is symmetric positive definite;
// only the lower triangle is computed and mirrored. Row k costs k+1 element
// evaluations, so the row sweep is balanced triangularly (parallel.ForTri);
// each element (and its mirror) is written by exactly one chunk and
// computed in the sequential order, so the matrix is bitwise identical for
// every worker count.
//
//sdpvet:hotpath
func (st *ipmState) formSchur() *linalg.Dense {
	st.fillFactors()
	parallel.ForTri(st.workers, st.m, 36, st.schurFn)
	return st.schur
}

// schurRows computes rows [klo, khi) of the Schur complement. Row k's
// lower part, which only this call writes, accumulates the PSD terms block
// by block and term by term of row k, so every element sums its products in
// the fixed order Σ_b Σ_r Σ_s.
//
//sdpvet:hotpath
func (st *ipmState) schurRows(klo, khi int) {
	schur, m := st.schur, st.m
	for k := klo; k < khi; k++ {
		row := schur.Data[k*m : k*m+k+1]
		for l := range row {
			row[l] = 0
		}
		for b, ts := range st.fac.terms {
			off := st.fac.off[b]
			kt := ts[off[k]:off[k+1]]
			switch {
			case len(kt) == 0:
				continue
			case kt[0].diff:
				// A distance row is its one difference term.
				u, w := st.fu[b].Row(int(kt[0].slot)), st.fw[b].Row(int(kt[0].slot))
				for l := range row {
					v := row[l]
					for s := off[l]; s < off[l+1]; s++ {
						v += ts[s].pair(u, w)
					}
					row[l] = v
				}
				continue
			}
			// Per-entry terms: U is row j of X, W is v times row i of S⁻¹.
			x, sinv := st.x[b], st.sinv[b]
			for l := range row {
				v := row[l]
				lt := ts[off[l]:off[l+1]]
				for r := range kt {
					u, sr := x.Row(int(kt[r].j)), sinv.Row(int(kt[r].i))
					for s := range lt {
						v += lt[s].pairScaled(u, sr, kt[r].v)
					}
				}
				row[l] = v
			}
		}
		// LP block: a_ki a_li xᵢ/sᵢ for every row l ≤ k sharing variable i.
		for _, e := range st.p.Cons[k].LP {
			for _, f := range st.fac.lpCols[e.I] {
				if f.row > k {
					break
				}
				row[f.row] += e.V * f.v * st.xlp[e.I] / st.slp[e.I]
			}
		}
		for l, v := range row {
			schur.Set(l, k, v)
		}
	}
}

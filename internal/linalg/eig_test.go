package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymEigKnown2x2(t *testing.T) {
	a := NewDenseFrom([][]float64{{2, 1}, {1, 2}})
	eg, err := new(EigWork).Factor(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eg.Values[0]-1) > 1e-12 || math.Abs(eg.Values[1]-3) > 1e-12 {
		t.Fatalf("eigenvalues = %v, want [1 3]", eg.Values)
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := NewDenseFrom([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 1}})
	eg, err := new(EigWork).Factor(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 1, 5}
	for i := range want {
		if math.Abs(eg.Values[i]-want[i]) > 1e-12 {
			t.Fatalf("eigenvalues = %v, want %v", eg.Values, want)
		}
	}
}

func TestSymEigReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randSym(r, n)
		w := new(EigWork)
		if _, err := w.Factor(a, 1); err != nil {
			return false
		}
		rec := reconstruct(w)
		for i := range a.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-9*(1+maxAbs(a.Data)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigOrthonormalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randSym(r, n)
		eg, err := new(EigWork).Factor(a, 1)
		if err != nil {
			return false
		}
		vtv := matMul(eg.V.T(), eg.V)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(vtv.At(i, j)-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		eg, err := new(EigWork).Factor(randSym(r, n), 1)
		if err != nil {
			return false
		}
		for i := 1; i < n; i++ {
			if eg.Values[i] < eg.Values[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSymEigTraceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randSym(rng, 20)
	eg, err := new(EigWork).Factor(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range eg.Values {
		sum += v
	}
	if math.Abs(sum-a.Trace()) > 1e-9 {
		t.Fatalf("Σλ = %g, trace = %g", sum, a.Trace())
	}
}

// reconstruct returns V diag(Values) Vᵀ for w's current decomposition.
func reconstruct(w *EigWork) *Dense {
	n := len(w.eig.Values)
	out := NewDense(n, n)
	w.ApplyFnInto(out, func(x float64) float64 { return x }, 1)
	return out
}

// psdProject returns the PSD-cone projection of the symmetric matrix a.
func psdProject(t *testing.T, a *Dense) *Dense {
	t.Helper()
	w := new(EigWork)
	if _, err := w.Factor(a, 1); err != nil {
		t.Fatal(err)
	}
	out := NewDense(a.Rows, a.Rows)
	w.PSDProjectInto(out, 1)
	return out
}

func TestPSDProject(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3 and -1
	p := psdProject(t, a)
	lam, err := new(EigWork).Min(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lam < -1e-12 {
		t.Fatalf("projection not PSD: λmin = %g", lam)
	}
	// Projection of a PSD matrix is itself.
	spd := NewDenseFrom([][]float64{{2, 1}, {1, 2}})
	matApproxEqual(t, psdProject(t, spd), spd, 1e-10, "PSD projection of PSD matrix")
}

func TestPSDProjectIsNearestProperty(t *testing.T) {
	// ‖A − P(A)‖F ≤ ‖A − B‖F for random PSD B (verified by sampling).
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		a := randSym(rng, n)
		p := psdProject(t, a)
		diff := a.Clone()
		diff.AddScaled(-1, p)
		dp := diff.FrobNorm()
		for s := 0; s < 10; s++ {
			b := randSPD(rng, n)
			d2 := a.Clone()
			d2.AddScaled(-1, b)
			if d2.FrobNorm() < dp-1e-9 {
				t.Fatalf("found PSD matrix closer than projection: %g < %g", d2.FrobNorm(), dp)
			}
		}
	}
}

// TestSqrtAndInvSqrt checks ApplyFnInto on spectrum maps other than the PSD
// clip: A^{1/2} and A^{-1/2}.
func TestSqrtAndInvSqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSPD(rng, 6)
	w := new(EigWork)
	if _, err := w.Factor(a, 1); err != nil {
		t.Fatal(err)
	}
	s := NewDense(6, 6)
	w.ApplyFnInto(s, math.Sqrt, 1)
	matApproxEqual(t, matMul(s, s), a, 1e-8, "sqrt squared")
	is := NewDense(6, 6)
	w.ApplyFnInto(is, func(x float64) float64 { return 1 / math.Sqrt(x) }, 1)
	prod := matMul(matMul(is, a), is)
	matApproxEqual(t, prod, Identity(6), 1e-8, "A^{-1/2} A A^{-1/2}")
}

func TestNumericalRank(t *testing.T) {
	// Rank-2 Gram matrix.
	x := NewDense(2, 5)
	rng := rand.New(rand.NewSource(2))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	g := matMul(x.T(), x)
	eg, err := new(EigWork).Factor(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := eg.NumericalRank(1e-9); r != 2 {
		t.Fatalf("NumericalRank = %d, want 2", r)
	}
}

func TestSymEigEmptyAndOne(t *testing.T) {
	if _, err := new(EigWork).Factor(NewDense(0, 0), 1); err != nil {
		t.Fatal(err)
	}
	eg, err := new(EigWork).Factor(NewDenseFrom([][]float64{{42}}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if eg.Values[0] != 42 || eg.V.At(0, 0) != 1 {
		t.Fatalf("1x1 eig wrong: %v %v", eg.Values, eg.V)
	}
}

func TestSymEigRepeatedEigenvalues(t *testing.T) {
	// A multiple of the identity: all eigenvalues equal, V orthonormal.
	a := Identity(5)
	a.Scale(3)
	eg, err := new(EigWork).Factor(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eg.Values {
		if math.Abs(v-3) > 1e-12 {
			t.Fatalf("eigenvalues = %v", eg.Values)
		}
	}
	matApproxEqual(t, matMul(eg.V.T(), eg.V), Identity(5), 1e-10, "VᵀV")
}

func BenchmarkSymEig100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randSym(rng, 100)
	var w EigWork
	if _, err := w.Factor(a, 1); err != nil { // size the workspace so allocs/op is benchtime-independent
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Factor(a, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randSPD(rng, 200)
	var w CholWork
	if _, err := w.Factor(a, 1); err != nil { // size the workspace so allocs/op is benchtime-independent
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Factor(a, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEigMinMatchesFactor pins EigWork.Min to the full decomposition: the
// eigenvalue-only path must return exactly Factor(a).Values[0], bit for
// bit, at every worker count. n = 200 reaches the parallel rank-2 update
// of tred2; the zero rows take its scale == 0 branch.
func TestEigMinMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	type minCase struct {
		name string
		a    *Dense
	}
	var cases []minCase
	for _, n := range []int{1, 2, 32, 70, 200} {
		cases = append(cases, minCase{fmt.Sprintf("random/n=%d", n), randSym(rng, n)})
	}
	diag := NewDense(9, 9)
	for i := 0; i < 9; i++ {
		diag.Set(i, i, float64((i*5)%9)-4)
	}
	cases = append(cases, minCase{"diagonal", diag})
	zeroRows := randSym(rng, 12)
	for _, r := range []int{0, 5, 11} {
		for j := 0; j < 12; j++ {
			zeroRows.Set(r, j, 0)
			zeroRows.Set(j, r, 0)
		}
	}
	cases = append(cases, minCase{"zero-rows", zeroRows}, minCase{"zero", NewDense(6, 6)})
	nan := randSym(rng, 8)
	nan.Set(3, 6, math.NaN())
	nan.Set(6, 3, math.NaN())
	cases = append(cases, minCase{"nan", nan})

	var mw EigWork // shared across sizes: Min must resize and reuse cleanly
	for _, c := range cases {
		name, a := c.name, c.a
		for _, w := range []int{1, 2, 7} {
			ref, ferr := new(EigWork).Factor(a, w)
			got, merr := mw.Min(a, w)
			if (ferr == nil) != (merr == nil) {
				t.Fatalf("%s w=%d: Factor error %v, Min error %v", name, w, ferr, merr)
			}
			if ferr != nil {
				continue
			}
			if want := ref.Values[0]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s w=%d: Min = %v (%#x), Factor λmin = %v (%#x)",
					name, w, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if v, err := mw.Min(NewDense(0, 0), 1); err != nil || !math.IsInf(v, 1) {
		t.Fatalf("Min of the empty matrix = %v, %v; want +Inf, nil", v, err)
	}
}

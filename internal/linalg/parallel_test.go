package linalg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// workerCounts exercised by every parity test: sequential, small parallel,
// odd chunking, and more chunks than the pool has goroutines.
var workerCounts = []int{1, 2, 3, 7, 16}

func randMat(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func matBytes(m *Dense) []byte {
	var b bytes.Buffer
	for _, v := range m.Data {
		var raw [8]byte
		binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
		b.Write(raw[:])
	}
	return b.Bytes()
}

func assertBitIdentical(t *testing.T, name string, ref, got *Dense, workers int) {
	t.Helper()
	if ref.Rows != got.Rows || ref.Cols != got.Cols {
		t.Fatalf("%s workers=%d: shape %dx%d, want %dx%d", name, workers, got.Rows, got.Cols, ref.Rows, ref.Cols)
	}
	if !bytes.Equal(matBytes(ref), matBytes(got)) {
		for i := range ref.Data {
			if math.Float64bits(ref.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("%s workers=%d: element %d = %v, want %v (bitwise)", name, workers, i, got.Data[i], ref.Data[i])
			}
		}
	}
}

// The bitwise tests below pin the entry points the solvers call: each runs
// the kernel at workers = 1 as the reference and requires every other worker
// count to reproduce it bit for bit.

func TestMatMulPBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var mm MatMulWork
	for _, dims := range [][3]int{{3, 4, 5}, {65, 40, 70}, {130, 130, 130}} {
		a := randMat(rng, dims[0], dims[1])
		b := randMat(rng, dims[1], dims[2])
		ref := NewDense(dims[0], dims[2])
		mm.MatMulInto(ref, a, b, 1)
		for _, w := range workerCounts {
			got := NewDense(dims[0], dims[2])
			mm.MatMulInto(got, a, b, w)
			assertBitIdentical(t, "MatMulWork.MatMulInto", ref, got, w)
		}
	}
}

func TestMulABtBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 90, 40)
	b := randMat(rng, 110, 40)
	var mm MatMulWork
	ref := NewDense(90, 110)
	mm.MulABtInto(ref, a, b, 1)
	// Reference against MatMulInto with an explicit transpose (values, not
	// bits: MulABtInto uses the unrolled dot kernel with its own association).
	chk := matMul(a, b.T())
	for i := range ref.Data {
		if math.Abs(ref.Data[i]-chk.Data[i]) > 1e-9 {
			t.Fatalf("MulABtInto element %d = %v, MatMulInto says %v", i, ref.Data[i], chk.Data[i])
		}
	}
	for _, w := range workerCounts {
		got := NewDense(90, 110)
		mm.MulABtInto(got, a, b, w)
		assertBitIdentical(t, "MatMulWork.MulABtInto", ref, got, w)
	}
}

func TestCholeskyPBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{10, 64, 120} {
		a := randSPD(rng, n)
		ref, err := new(CholWork).Factor(a, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var cw CholWork
		for _, w := range workerCounts {
			got, err := cw.Factor(a, w)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			assertBitIdentical(t, "CholWork.Factor", ref.L, got.L, w)
		}
	}
}

func TestCholeskyPNotPosDef(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSPD(rng, 80)
	a.Set(40, 40, -1) // indefinite
	var cw CholWork
	for _, w := range workerCounts {
		if _, err := cw.Factor(a, w); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("workers=%d: err = %v, want ErrNotPositiveDefinite", w, err)
		}
	}
}

func TestSolvePBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSPD(rng, 70)
	c, err := new(CholWork).Factor(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := randMat(rng, 33, 70) // 33 right-hand sides, one per row
	ref := b.Clone()
	c.SolveRows(ref, 1)
	fwdRef := b.Clone()
	c.ForwardSolveRows(fwdRef, 1)
	refInv := NewDense(70, 70)
	c.InverseInto(refInv, 1)
	for _, w := range workerCounts {
		got := b.Clone()
		c.SolveRows(got, w)
		assertBitIdentical(t, "SolveRows", ref, got, w)
		fwd := b.Clone()
		c.ForwardSolveRows(fwd, w)
		assertBitIdentical(t, "ForwardSolveRows", fwdRef, fwd, w)
		inv := NewDense(70, 70)
		c.InverseInto(inv, w)
		assertBitIdentical(t, "InverseInto", refInv, inv, w)
	}
}

func TestSymEigPBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{5, 80, 150} {
		a := randMat(rng, n, n)
		a.Symmetrize()
		rw := new(EigWork)
		ref, err := rw.Factor(a, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var ew EigWork
		for _, w := range workerCounts {
			got, err := ew.Factor(a, w)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			for j := range ref.Values {
				if math.Float64bits(ref.Values[j]) != math.Float64bits(got.Values[j]) {
					t.Fatalf("n=%d workers=%d: eigenvalue %d = %v, want %v", n, w, j, got.Values[j], ref.Values[j])
				}
			}
			assertBitIdentical(t, "EigWork.Factor.V", ref.V, got.V, w)
		}
		// And it is actually a decomposition.
		rec := reconstruct(rw)
		for i := range a.Data {
			if math.Abs(rec.Data[i]-a.Data[i]) > 1e-8*float64(n) {
				t.Fatalf("n=%d: reconstruction off at %d: %v vs %v", n, i, rec.Data[i], a.Data[i])
			}
		}
	}
}

// TestPSDProjectPBitIdentical pins the ADMM projection step: PSDProjectInto
// on a recycled workspace, across worker counts.
func TestPSDProjectPBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 90, 90)
	a.Symmetrize()
	var ew EigWork
	if _, err := ew.Factor(a, 1); err != nil {
		t.Fatal(err)
	}
	ref := NewDense(90, 90)
	ew.PSDProjectInto(ref, 1)
	for _, w := range workerCounts {
		if _, err := ew.Factor(a, w); err != nil {
			t.Fatal(err)
		}
		got := NewDense(90, 90)
		ew.PSDProjectInto(got, w)
		assertBitIdentical(t, "EigWork.PSDProjectInto", ref, got, w)
	}
	// Projection must be PSD up to numerical noise.
	lam, err := new(EigWork).Min(ref, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lam < -1e-9 {
		t.Fatalf("PSD projection has eigenvalue %v", lam)
	}
}

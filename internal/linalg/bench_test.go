package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks for the parallel-kernel hot paths. Sizes track the paper's
// instances: the SDP iterate Z for nX has dimension X+2, so n64–n256 spans
// the n10–n200 suite. Each kernel runs at w1 (sequential baseline) and w4;
// cmd/benchdiff compares these against BENCH_baseline.json in CI.

var benchSink float64

var benchSizes = []int{64, 128, 256}

func benchWorkerCounts() []int { return []int{1, 4} }

func BenchmarkMatMul(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		x := randMat(rng, n, n)
		y := randMat(rng, n, n)
		dst := NewDense(n, n)
		var mm MatMulWork
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				mm.MatMulInto(dst, x, y, w) // warm the dispatch free list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mm.MatMulInto(dst, x, y, w)
				}
				benchSink = dst.Data[0]
			})
		}
	}
}

func BenchmarkMulABt(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		x := randMat(rng, n, n)
		y := randMat(rng, n, n)
		dst := NewDense(n, n)
		var mm MatMulWork
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				mm.MulABtInto(dst, x, y, w) // warm the dispatch free list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mm.MulABtInto(dst, x, y, w)
				}
				benchSink = dst.Data[0]
			})
		}
	}
}

func BenchmarkCholesky(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randSPD(rng, n)
		var cw CholWork
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				if _, err := cw.Factor(a, w); err != nil { // warm the workspace and the dispatch free list
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := cw.Factor(a, w)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = c.L.Data[0]
				}
			})
		}
	}
}

func BenchmarkCholInverse(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		var cw CholWork
		c, err := cw.Factor(randSPD(rng, n), 1)
		if err != nil {
			b.Fatal(err)
		}
		inv := NewDense(n, n)
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				c.InverseInto(inv, w) // warm the lazily built Lᵀ and the dispatch free list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.InverseInto(inv, w)
					benchSink = inv.Data[0]
				}
			})
		}
	}
}

func BenchmarkSymEig(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randMat(rng, n, n)
		a.Symmetrize()
		var ew EigWork
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				if _, err := ew.Factor(a, w); err != nil { // warm the workspace and the dispatch free list
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eg, err := ew.Factor(a, w)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = eg.Values[0]
				}
			})
		}
	}
}

// BenchmarkEigMin is BenchmarkSymEig for the eigenvalue-only λmin the IPM
// step length and the KKT check use.
func BenchmarkEigMin(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randMat(rng, n, n)
		a.Symmetrize()
		var ew EigWork
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				if _, err := ew.Min(a, w); err != nil { // warm the workspace and the dispatch free list
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v, err := ew.Min(a, w)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = v
				}
			})
		}
	}
}

func BenchmarkPSDProject(b *testing.B) {
	for _, n := range benchSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randMat(rng, n, n)
		a.Symmetrize()
		var ew EigWork
		if _, err := ew.Factor(a, 1); err != nil {
			b.Fatal(err)
		}
		dst := NewDense(n, n)
		for _, w := range benchWorkerCounts() {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				ew.PSDProjectInto(dst, w) // warm the workspace and the dispatch free list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ew.PSDProjectInto(dst, w)
					benchSink = dst.Data[0]
				}
			})
		}
	}
}

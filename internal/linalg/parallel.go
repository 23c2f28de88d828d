package linalg

import "sdpfloor/internal/parallel"

// minParFlops is the approximate flop count that justifies a fork/join:
// below it, the parallel entry points run their kernels sequentially. All
// parallel kernels here split their output row/column space into fixed
// contiguous chunks with disjoint writes and an unchanged per-element
// operation order, so results are bitwise identical to the sequential
// kernels for every worker count.
const minParFlops = 32768

// MatMulWork owns the dispatch state for zero-allocation parallel matrix
// products: the closure handed to the worker pool is bound once and reads the
// operand fields, so repeated products allocate nothing in the steady state.
// The zero value is ready to use. Not safe for concurrent use; each solver
// loop owns its own.
type MatMulWork struct {
	dst, a, b   *Dense
	mmFn, abtFn func(lo, hi int)
}

func (w *MatMulWork) bind() {
	if w.mmFn == nil {
		w.mmFn = func(lo, hi int) { matMulRows(w.dst, w.a, w.b, lo, hi) }
		w.abtFn = func(lo, hi int) { mulABtRows(w.dst, w.a, w.b, lo, hi) }
	}
}

// MatMulInto computes dst = a·b, splitting the rows of a across the worker
// pool. dst must not alias a or b. Bitwise identical for every worker count.
//
//sdpvet:hotpath
func (w *MatMulWork) MatMulInto(dst, a, b *Dense, workers int) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("linalg: MatMulInto dimension mismatch")
	}
	if workers <= 1 || a.Rows*a.Cols*b.Cols < minParFlops {
		matMulRows(dst, a, b, 0, a.Rows)
		return
	}
	w.bind()
	w.dst, w.a, w.b = dst, a, b
	parallel.For(workers, a.Rows, 1, w.mmFn)
	w.dst, w.a, w.b = nil, nil, nil
}

// MulABtInto computes dst = a·bᵀ through the recycled dispatch state.
// a is m×k, b is n×k, and element (i, j) of dst is the dot product of row i
// of a and row j of b, so both operands stream row-major and no transpose
// materializes. Bitwise identical for every worker count (each element is
// one sequential dot product).
//
//sdpvet:hotpath
func (w *MatMulWork) MulABtInto(dst, a, b *Dense, workers int) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("linalg: MulABtInto dimension mismatch")
	}
	if workers <= 1 || a.Rows*b.Rows*a.Cols < minParFlops {
		mulABtRows(dst, a, b, 0, a.Rows)
		return
	}
	w.bind()
	w.dst, w.a, w.b = dst, a, b
	parallel.For(workers, a.Rows, 1, w.abtFn)
	w.dst, w.a, w.b = nil, nil, nil
}

// mulABtRows computes rows [lo, hi) of dst = a·bᵀ, tiled over the rows of b
// so the active b panel stays L1-resident across consecutive rows of a.
// Each output element is still one sequential dot product, so the tiled
// kernel is bitwise identical to the untiled one.
//
//sdpvet:hotpath
func mulABtRows(dst, a, b *Dense, lo, hi int) {
	tile := mulTileCols(a.Cols) // rows of b per panel: same cache budget
	for j0 := 0; j0 < b.Rows; j0 += tile {
		j1 := j0 + tile
		if j1 > b.Rows {
			j1 = b.Rows
		}
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			j := j0
			for ; j+1 < j1; j += 2 {
				drow[j], drow[j+1] = dotPrefix2(arow, b.Row(j), b.Row(j+1))
			}
			for ; j < j1; j++ {
				drow[j] = dotPrefix(arow, b.Row(j))
			}
		}
	}
}

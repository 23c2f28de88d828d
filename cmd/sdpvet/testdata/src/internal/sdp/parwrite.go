package sdp

import "sdpvet.example/internal/parallel"

var globalTotal float64

func sharedAccumulator(xs []float64) float64 {
	var sum float64
	parallel.For(4, len(xs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i] // want parwrite
		}
		globalTotal += 1 // want parwrite
	})
	return sum + globalTotal
}

func sharedAppend(xs []float64) []float64 {
	var out []float64
	parallel.For(4, len(xs), 1, func(lo, hi int) {
		out = append(out, xs[lo]) // want parwrite
	})
	return out
}

func sharedTriangularSum(l []float64, m int) float64 {
	var sum float64
	rows := 0
	parallel.ForTri(4, m, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			sum += l[r] // want parwrite
			rows++      // want parwrite
		}
	})
	return sum + float64(rows)
}

func disjointWritesAreFine(xs, ys []float64) {
	parallel.For(4, len(xs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ys[i] = 2 * xs[i] // indexed write: the sanctioned pattern
		}
	})
}

func disjointTriangularRowsAreFine(l, rowSums []float64, m int) {
	parallel.ForTri(4, m, 1, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			local := 0.0 // chunk-private: no finding
			for k := 0; k <= r; k++ {
				local += l[r*m+k]
			}
			rowSums[r] = local // indexed write: no finding
		}
	})
}

// Package parallel is a sequential stand-in for the real worker pool with
// the same call signatures, so the corpus can exercise the parwrite
// analyzer without pulling the production module in.
package parallel

// For mirrors the production chunked parallel-for.
func For(workers, n, minPar int, fn func(lo, hi int)) { fn(0, n) }

// ForTri mirrors the production triangular-balanced parallel-for.
func ForTri(workers, m, minPar int, fn func(lo, hi int)) { fn(0, m) }

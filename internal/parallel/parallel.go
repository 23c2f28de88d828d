// Package parallel provides the shared worker pool behind the solver's
// dense-kernel parallelism: a chunked parallel-for (no work stealing) over a
// size-capped set of goroutines started on first use.
//
// Design constraints, in order:
//
//   - Determinism. Every helper splits its index space into contiguous
//     chunks whose boundaries depend only on (n, workers). Callers arrange
//     for chunks to write disjoint outputs with an unchanged per-element
//     operation order, so results are bitwise identical across all worker
//     counts.
//   - Bounded concurrency. One process-wide pool serves every concurrent
//     solve: a job may request any chunk count, but at most poolSize
//     goroutines ever run chunks at once, so service-level concurrency ×
//     per-solve parallelism cannot oversubscribe the machine.
//   - No deadlocks under saturation. Job submission never blocks: if no
//     pool worker is free the caller runs the remaining chunks inline, so
//     nested parallel-for calls (a parallel kernel inside a parallel solve)
//     always make progress.
//   - Zero steady-state allocation. A dispatch borrows a job descriptor from
//     a process-wide free list (a mutex-guarded stack, deliberately not a
//     sync.Pool: GC never drains it, so allocs/op is deterministic) and
//     chunks are claimed from an atomic counter — no per-chunk closures or
//     range slices. For and ForTri allocate nothing beyond whatever closure
//     the caller passes in.
//
// The pool size defaults to GOMAXPROCS and can be overridden with the
// SDPFLOOR_WORKERS environment variable. Worker counts requested per call
// are chunk counts, not goroutine counts: asking for 8 chunks on a 2-core
// pool still yields the 8-chunk (deterministic) decomposition, executed at
// most 2 at a time.
package parallel

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

var (
	initOnce sync.Once
	poolSize int
	tasks    chan *job
)

// job is one parallel-for dispatch in flight. The caller and any pool
// workers that picked the job up claim chunks from the shared atomic
// counter; chunk boundaries are recomputed from (n, w, chunk) on demand so
// the descriptor carries no per-chunk state.
type job struct {
	fn   func(lo, hi int) // For / ForTri body
	n    int              // index range (rows, for tri jobs)
	w    int              // chunk count
	tri  bool             // triangular-balanced boundaries
	next int64            // atomic: next unclaimed chunk

	chunks  sync.WaitGroup // one count per chunk; Done as each completes
	helpers sync.WaitGroup // one count per pool worker holding the job
}

// runChunks claims and executes chunks until none remain. Called by the
// dispatching goroutine and by every pool worker that received the job.
func (j *job) runChunks() {
	for {
		c := int(atomic.AddInt64(&j.next, 1)) - 1
		if c >= j.w {
			return
		}
		var lo, hi int
		if j.tri {
			lo, hi = triBound(j.n, j.w, c), triBound(j.n, j.w, c+1)
		} else {
			lo, hi = c*j.n/j.w, (c+1)*j.n/j.w
		}
		j.fn(lo, hi)
		j.chunks.Done()
	}
}

// jobFree is the process-wide descriptor free list. A plain mutex-guarded
// stack rather than a sync.Pool: it grows to the peak number of concurrent
// dispatches and is never drained by the GC, so allocation counts in the
// steady state are exactly zero — which the alloc-gate CI check relies on.
var jobFree struct {
	sync.Mutex
	list []*job
}

func getJob() *job {
	jobFree.Lock()
	if n := len(jobFree.list); n > 0 {
		j := jobFree.list[n-1]
		jobFree.list = jobFree.list[:n-1]
		jobFree.Unlock()
		return j
	}
	jobFree.Unlock()
	return new(job)
}

func putJob(j *job) {
	j.fn = nil // do not retain caller closures
	jobFree.Lock()
	jobFree.list = append(jobFree.list, j)
	jobFree.Unlock()
}

// dispatch runs a prepared job: it offers the job to idle pool workers
// (never blocking — an unbuffered send only succeeds when a worker is
// parked on the channel) and then helps drain chunks itself. On return all
// chunks have completed and no other goroutine references the job.
func (j *job) dispatch() {
	setup()
	atomic.StoreInt64(&j.next, 0)
	j.chunks.Add(j.w)
	for c := 1; c < j.w; c++ {
		j.helpers.Add(1)
		select {
		case tasks <- j:
		default:
			j.helpers.Add(-1) // pool saturated: the caller will run it inline
		}
	}
	j.runChunks()
	j.chunks.Wait()
	j.helpers.Wait() // workers must release the job before it is recycled
}

// setup starts the shared pool on first use. poolSize-1 background
// goroutines are spawned (the caller of For/ForTri always executes chunks
// itself), with a floor of one so that single-CPU machines still exercise
// real concurrency (and the race detector sees it).
func setup() {
	initOnce.Do(func() {
		poolSize = EnvWorkers(os.Getenv("SDPFLOOR_WORKERS"), runtime.GOMAXPROCS(0))
		bg := poolSize - 1
		if bg < 1 {
			bg = 1
		}
		tasks = make(chan *job)
		for i := 0; i < bg; i++ {
			go func() {
				for j := range tasks {
					j.runChunks()
					j.helpers.Done()
				}
			}()
		}
	})
}

// EnvWorkers resolves the pool size from an SDPFLOOR_WORKERS value and the
// GOMAXPROCS fallback: a positive integer wins, anything else (empty,
// malformed, non-positive) falls back. Exposed for testability; the pool
// itself reads the environment once, at first use.
func EnvWorkers(env string, fallback int) int {
	if v, err := strconv.Atoi(env); err == nil && v > 0 {
		return v
	}
	if fallback < 1 {
		return 1
	}
	return fallback
}

// Default returns the shared pool size — the natural per-solve worker count
// when a single job owns the machine.
func Default() int {
	setup()
	return poolSize
}

// Workers resolves a requested worker count: values ≤ 0 select the shared
// default (GOMAXPROCS or the SDPFLOOR_WORKERS override); positive values are
// returned unchanged, so a job can be restricted to fewer cores than the
// machine has (or ask for a fixed chunk layout larger than it).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return Default()
}

// For splits [0, n) into `workers` fixed contiguous chunks and runs fn over
// each, concurrently on the shared pool. Chunk boundaries are
// chunk c = [c·n/w, (c+1)·n/w), depending only on (n, workers). fn must
// treat its [lo, hi) range as exclusive property; chunks run in unspecified
// order and concurrently.
//
// Sequential fallback: workers ≤ 1 or n < minPar runs fn(0, n) on the
// calling goroutine — small problems skip the fork/join cost entirely.
func For(workers, n, minPar int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minPar {
		fn(0, n)
		return
	}
	j := getJob()
	j.fn, j.n, j.w, j.tri = fn, n, workers, false
	j.dispatch()
	putJob(j)
}

// ForTri splits the rows of a lower-triangular sweep (row k holding k+1
// elements, m rows) into at most `workers` contiguous row ranges of roughly
// equal element count and runs fn over each on the shared pool.
// Boundaries depend only on (m, workers), computed per chunk in closed form.
//
// Sequential fallback: workers ≤ 1 or fewer than minPar total elements
// (m(m+1)/2 < minPar) runs fn(0, m) on the calling goroutine.
func ForTri(workers, m, minPar int, fn func(lo, hi int)) {
	if m <= 0 {
		return
	}
	if workers > m {
		workers = m
	}
	if workers <= 1 || m*(m+1)/2 < minPar {
		fn(0, m)
		return
	}
	j := getJob()
	j.fn, j.n, j.w, j.tri = fn, m, workers, true
	j.dispatch()
	putJob(j)
}

// triBound returns the row boundary before chunk c of a triangular sweep
// split `workers` ways over m rows: the smallest k whose leading element
// count k(k+1)/2 reaches c's proportional share. triBound(m, w, 0) = 0 and
// triBound(m, w, w) = m; boundaries are non-decreasing in c and depend only
// on (m, workers).
func triBound(m, workers, c int) int {
	if c <= 0 {
		return 0
	}
	if c >= workers {
		return m
	}
	total := m * (m + 1) / 2
	target := c * total / workers
	// Smallest k with k(k+1)/2 ≥ target; the float seed is corrected by
	// integer comparison so the result is exact on every platform.
	k := int((math.Sqrt(8*float64(target)+1) - 1) / 2)
	for k > 0 && k*(k+1)/2 >= target {
		k--
	}
	for k*(k+1)/2 < target {
		k++
	}
	if k > m {
		k = m
	}
	return k
}

// TriRanges returns the full boundary slice for a triangular sweep: b with
// len(b) = chunks+1, b[0] = 0, b[last] = m; chunk c covers rows
// [b[c], b[c+1]). It allocates, so kernels use ForTri, which computes the
// same boundaries in closed form per chunk; TriRanges is the reference the
// tests check ForTri's chunking against.
func TriRanges(m, workers int) []int {
	if workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	b := make([]int, workers+1)
	for c := range b {
		b[c] = triBound(m, workers, c)
	}
	return b
}

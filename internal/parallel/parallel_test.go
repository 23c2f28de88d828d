package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		for _, n := range []int{0, 1, 2, 5, 63, 64, 1000} {
			hits := make([]int32, n)
			For(workers, n, 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForSequentialFallback(t *testing.T) {
	calls := 0
	For(8, 100, 1000, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("fallback got [%d,%d), want [0,100)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("fallback ran %d chunks, want 1", calls)
	}
}

func TestForPartition(t *testing.T) {
	// Chunk layout must be exactly the `workers` fixed c·n/w boundaries.
	for _, workers := range []int{2, 3, 8} {
		n := 100
		var mu sync.Mutex
		got := make(map[[2]int]bool)
		For(workers, n, 0, func(lo, hi int) {
			mu.Lock()
			got[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		if len(got) != workers {
			t.Fatalf("workers=%d: %d chunks, want %d", workers, len(got), workers)
		}
		for c := 0; c < workers; c++ {
			if r := [2]int{c * n / workers, (c + 1) * n / workers}; !got[r] {
				t.Fatalf("workers=%d: chunk %d [%d,%d) missing from %v", workers, c, r[0], r[1], got)
			}
		}
	}
}

func TestNestedForNoDeadlock(t *testing.T) {
	// Saturate the pool with nested parallel-fors; inline fallback must keep
	// everything progressing.
	var total int64
	For(8, 8, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(8, 100, 0, func(lo2, hi2 int) {
				atomic.AddInt64(&total, int64(hi2-lo2))
			})
		}
	})
	if total != 800 {
		t.Fatalf("nested total = %d, want 800", total)
	}
}

func TestEnvWorkers(t *testing.T) {
	cases := []struct {
		env      string
		fallback int
		want     int
	}{
		{"", 4, 4},
		{"8", 4, 8},
		{"1", 4, 1},
		{"0", 4, 4},
		{"-3", 4, 4},
		{"junk", 4, 4},
		{"", 0, 1},
	}
	for _, c := range cases {
		if got := EnvWorkers(c.env, c.fallback); got != c.want {
			t.Errorf("EnvWorkers(%q, %d) = %d, want %d", c.env, c.fallback, got, c.want)
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != Default() {
		t.Fatalf("Workers(0) = %d, want default %d", got, Default())
	}
	if Default() < 1 {
		t.Fatalf("Default() = %d", Default())
	}
}

func TestTriRanges(t *testing.T) {
	for _, m := range []int{1, 2, 5, 17, 100, 573} {
		for _, workers := range []int{1, 2, 4, 8, 600} {
			b := TriRanges(m, workers)
			if b[0] != 0 || b[len(b)-1] != m {
				t.Fatalf("m=%d w=%d: boundaries %v do not span [0,%d]", m, workers, b, m)
			}
			total := m * (m + 1) / 2
			per := total / min(workers, m)
			for c := 0; c+1 < len(b); c++ {
				if b[c] > b[c+1] {
					t.Fatalf("m=%d w=%d: decreasing boundaries %v", m, workers, b)
				}
				// Balance: no chunk should exceed twice its fair share plus
				// one row (a single row is the indivisible unit).
				cnt := b[c+1]*(b[c+1]+1)/2 - b[c]*(b[c]+1)/2
				if per > 0 && cnt > 2*per+m {
					t.Fatalf("m=%d w=%d chunk %d holds %d of %d elements", m, workers, c, cnt, total)
				}
			}
			// Determinism: identical on recomputation.
			b2 := TriRanges(m, workers)
			for i := range b {
				if b[i] != b2[i] {
					t.Fatalf("TriRanges(%d,%d) not deterministic: %v vs %v", m, workers, b, b2)
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestForTriCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		for _, m := range []int{0, 1, 2, 5, 63, 64, 573} {
			hits := make([]int32, m)
			ForTri(workers, m, 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d m=%d: row %d visited %d times", workers, m, i, h)
				}
			}
		}
	}
}

func TestForTriMatchesTriRanges(t *testing.T) {
	// ForTri's closed-form per-chunk boundaries must agree with the
	// TriRanges slice — same decomposition, computed without allocating.
	for _, workers := range []int{2, 4, 8} {
		for _, m := range []int{5, 17, 100, 573} {
			var mu sync.Mutex
			got := make(map[int]int)
			ForTri(workers, m, 0, func(lo, hi int) {
				mu.Lock()
				got[lo] = hi
				mu.Unlock()
			})
			b := TriRanges(m, workers)
			want := 0
			for c := 0; c+1 < len(b); c++ {
				if b[c] == b[c+1] {
					continue // empty chunk: fn is still called, range is empty
				}
				want++
				if hi, ok := got[b[c]]; !ok || hi != b[c+1] {
					t.Fatalf("m=%d w=%d: chunk [%d,%d) missing or mismatched (got hi=%d)", m, workers, b[c], b[c+1], hi)
				}
			}
		}
	}
}

func TestForTriSequentialFallback(t *testing.T) {
	calls := 0
	ForTri(8, 100, 1<<30, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("fallback got [%d,%d), want [0,100)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("fallback ran %d chunks, want 1", calls)
	}
}

// TestDispatchNoSteadyStateAllocs pins the zero-allocation contract the CI
// alloc gate depends on: once the job free list is warm, For and ForTri
// allocate nothing per call beyond the caller's own closure.
func TestDispatchNoSteadyStateAllocs(t *testing.T) {
	const n = 1024
	buf := make([]float64, n)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf[i]++
		}
	}
	For(4, n, 0, fn) // warm the free list and the pool
	ForTri(4, n, 0, fn)
	cases := []struct {
		name string
		call func()
	}{
		{"For", func() { For(4, n, 0, fn) }},
		{"ForTri", func() { ForTri(4, n, 0, fn) }},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(20, c.call); avg != 0 {
			t.Errorf("%s allocates %.1f times per call in steady state, want 0", c.name, avg)
		}
	}
}

func TestNestedForTriNoDeadlock(t *testing.T) {
	var total int64
	ForTri(8, 8, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ForTri(8, 100, 0, func(lo2, hi2 int) {
				atomic.AddInt64(&total, int64(hi2-lo2))
			})
		}
	})
	if total != 800 {
		t.Fatalf("nested total = %d, want 800", total)
	}
}

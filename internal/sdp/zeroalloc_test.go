package sdp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/linalg"
)

// The steady-state zero-allocation contract: after warm-up, neither solver's
// inner loop may allocate. The arena owns every iteration-scoped matrix and
// workspace, the parallel pool recycles its dispatch jobs, and all closures
// handed to the pool are bound once at state construction — so allocs/op is
// exactly 0, at every worker count, and the CI alloc gate can hard-fail on
// any regression without a noise margin.

func TestIPMInnerLoopZeroAlloc(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			p := randomFeasibleSDP(rng, 70, 120) // dim > 64: blocked kernel paths
			opt := IPMOptions{Workers: w}
			opt.setDefaults()
			st := newIPMState(p, opt, nil)
			defer st.release()
			// Warm up: first steps grow the arena, bind the pool jobs, and
			// size the eigensolver scratch.
			for i := 0; i < 2; i++ {
				if v := ipmFrozenStep(st); math.IsNaN(v) {
					t.Fatal("frozen step failed during warm-up")
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				ipmFrozenStep(st)
			})
			if allocs != 0 {
				t.Fatalf("IPM frozen step: %v allocs/op, want 0", allocs)
			}
		})
	}
}

func TestADMMIterateZeroAlloc(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			p := randomFeasibleSDP(rng, 70, 120)
			opt := ADMMOptions{Workers: w}
			opt.setDefaults()
			st := newADMMState(p, opt)
			defer st.release()
			sol := &Solution{}
			iter := 0
			for ; iter < 2; iter++ {
				st.iterate(sol, iter, nil)
			}
			allocs := testing.AllocsPerRun(5, func() {
				st.iterate(sol, iter, nil)
				iter++
			})
			if allocs != 0 {
				t.Fatalf("ADMM iterate: %v allocs/op, want 0", allocs)
			}
		})
	}
}

// TestIPMArenaReuseAcrossSolves: a shared arena must neither change results
// nor leak state between sequential solves — the convex-iteration driver
// hands one arena to every sub-problem solve.
func TestIPMArenaReuseAcrossSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomFeasibleSDP(rng, 40, 60)
	ref, err := SolveIPM(p, IPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	arena := linalg.NewArena()
	for k := 0; k < 3; k++ {
		sol, err := SolveIPM(p, IPMOptions{Arena: arena})
		if err != nil {
			t.Fatalf("solve %d with shared arena: %v", k, err)
		}
		if sol.Status != ref.Status || sol.Iterations != ref.Iterations {
			t.Fatalf("solve %d: status/iters (%v, %d) != private-scratch (%v, %d)",
				k, sol.Status, sol.Iterations, ref.Status, ref.Iterations)
		}
		for bi := range ref.X {
			for i, v := range ref.X[bi].Data {
				if sol.X[bi].Data[i] != v {
					t.Fatalf("solve %d: X[%d].Data[%d] = %v, want %v (bitwise)",
						k, bi, i, sol.X[bi].Data[i], v)
				}
			}
		}
	}
}

// TestADMMArenaReuseAcrossSolves: same contract for the first-order solver.
func TestADMMArenaReuseAcrossSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := randomFeasibleSDP(rng, 25, 15)
	ref, err := SolveADMM(p, ADMMOptions{MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	arena := linalg.NewArena()
	for k := 0; k < 3; k++ {
		sol, err := SolveADMM(p, ADMMOptions{MaxIter: 300, Arena: arena})
		if err != nil {
			t.Fatalf("solve %d with shared arena: %v", k, err)
		}
		if sol.Iterations != ref.Iterations {
			t.Fatalf("solve %d: %d iterations, want %d", k, sol.Iterations, ref.Iterations)
		}
		for bi := range ref.X {
			for i, v := range ref.X[bi].Data {
				if sol.X[bi].Data[i] != v {
					t.Fatalf("solve %d: X[%d].Data[%d] = %v, want %v (bitwise)",
						k, bi, i, sol.X[bi].Data[i], v)
				}
			}
		}
	}
}

// TestIPMSequenceSteadyStateZeroAlloc: the end-to-end property the arena
// buys — repeated same-shaped solves through one arena settle to zero
// solver-side allocations per iteration... except for the iterate itself
// (X/S/y escape into each Solution) and per-solve setup. This test pins the
// weaker but meaningful invariant that total allocated bytes per solve stop
// growing with the arena warm: solve k+1 must not allocate more than solve 1
// did by more than a small slack.
func TestIPMSequenceSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	p := randomFeasibleSDP(rng, 40, 60)
	arena := linalg.NewArena()
	measure := func() float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := SolveIPM(p, IPMOptions{Arena: arena}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if _, err := SolveIPM(p, IPMOptions{Arena: arena}); err != nil { // warm the arena
		t.Fatal(err)
	}
	warm1 := measure()
	warm2 := measure()
	if warm2 > warm1 {
		t.Fatalf("allocations still growing with a warm arena: %v then %v allocs/solve", warm1, warm2)
	}
}

package sdp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdpfloor/internal/linalg"
)

// Benchmarks for the interior-point hot paths at the paper's instance
// scales: the nX suite produces one PSD block of dimension X+2 with a few
// hundred distance constraints, so (dim, m) pairs below bracket n10–n200.
// w1 is the sequential baseline; cmd/benchdiff compares all of these
// against BENCH_baseline.json in CI.

var benchScales = []struct {
	name string
	dim  int // PSD block dimension (≈ modules + 2)
	m    int // constraint count (≈ working-set distance pairs)
}{
	{"n10", 12, 60},
	{"n50", 52, 220},
	{"n100", 102, 420},
	{"n200", 202, 840},
}

var benchSinkF float64

// benchIPMState builds a solver state mid-iteration: a strictly feasible
// random problem with the residuals, factorizations, and S⁻¹ populated,
// ready for formSchur and the direction solves.
func benchIPMState(b *testing.B, dim, m, workers int) *ipmState {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(dim*1000 + m)))
	return benchStateFor(b, randomFeasibleSDP(rng, dim, m), workers)
}

// benchStateFor is benchIPMState on a given problem.
func benchStateFor(b *testing.B, p *Problem, workers int) *ipmState {
	b.Helper()
	opt := IPMOptions{Workers: workers}
	opt.setDefaults()
	st := newIPMState(p, opt, nil)
	st.residuals()
	if !st.factorIterates() {
		b.Fatal("initial iterate not positive definite")
	}
	return st
}

// ipmFrozenStep runs one full predictor–corrector iteration worth of work —
// residuals through the step safeguards — without updating the iterate, so
// every round performs identical work on identical state. This is the IPM
// inner loop the alloc gate holds at zero steady-state allocations.
func ipmFrozenStep(st *ipmState) float64 {
	st.residuals()
	if !st.factorIterates() {
		return math.NaN()
	}
	mu := st.innerXS() / st.nu
	schur := st.formSchur()
	sfac, _, err := factorSchur(st.schurW, schur, st.workers)
	if err != nil {
		return math.NaN()
	}
	st.prepXrdsinv()
	st.solveDirection(sfac, st.aff, 0, mu, false)
	apAff := st.maxStepPrimal(st.aff)
	adAff := st.maxStepDual(st.aff)
	muAff := st.innerXSAfter(st.aff, apAff, adAff) / st.nu
	sigma := math.Pow(muAff/mu, 3)
	if sigma > 1 {
		sigma = 1
	}
	if sigma < 1e-8 {
		sigma = 1e-8
	}
	st.buildCorrector(st.aff)
	st.solveDirection(sfac, st.dir, sigma, mu, true)
	ap := st.safeguardPrimal(st.dir, st.maxStepPrimal(st.dir))
	ad := st.safeguardDual(st.dir, st.maxStepDual(st.dir))
	return ap + ad
}

// BenchmarkFormSchur times the Schur assembly. The nX rows are random
// 3-entry constraints, which take the per-entry path of the factored form;
// floorplan-n30 has the shape of an n30 sub-problem after equilibration
// (dim 32, m 193: 160 distance pairs, each a single difference term, 30
// outline sides and the 3 identity rows).
func BenchmarkFormSchur(b *testing.B) {
	run := func(b *testing.B, st *ipmState) {
		st.formSchur() // warm the triangular-dispatch free list
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSinkF = st.formSchur().At(0, 0)
		}
	}
	for _, sc := range benchScales {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/w%d", sc.name, w), func(b *testing.B) {
				run(b, benchIPMState(b, sc.dim, sc.m, w))
			})
		}
	}
	b.Run("floorplan-n30/w1", func(b *testing.B) {
		p := equilibrate(floorplanRows(rand.New(rand.NewSource(30)), 30, 0, 160, 30, 0)).p
		run(b, benchStateFor(b, p, 1))
	})
}

// BenchmarkIPMInnerLoop measures one frozen predictor–corrector iteration.
// The allocs/op column is the contract: 0 after warm-up, enforced by the CI
// alloc gate and TestIPMInnerLoopZeroAlloc.
func BenchmarkIPMInnerLoop(b *testing.B) {
	for _, sc := range benchScales[:3] {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/w%d", sc.name, w), func(b *testing.B) {
				st := benchIPMState(b, sc.dim, sc.m, w)
				ipmFrozenStep(st) // warm up the arena and dispatch state
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSinkF = ipmFrozenStep(st)
				}
			})
		}
	}
}

// BenchmarkADMMProjection measures full ADMM iterations — CG y-update,
// eigendecomposition, PSD projection, residuals — on a live state. Each
// round does the complete per-iteration work (convergence is only checked,
// never early-exited, inside iterate's caller). allocs/op must be 0.
func BenchmarkADMMProjection(b *testing.B) {
	for _, sc := range benchScales[:3] {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/w%d", sc.name, w), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(sc.dim)))
				p := randomFeasibleSDP(rng, sc.dim, sc.m)
				opt := ADMMOptions{Workers: w}
				opt.setDefaults()
				st := newADMMState(p, opt)
				sol := &Solution{}
				st.iterate(sol, 0, nil) // warm up the arena and CG state
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.iterate(sol, i+1, nil)
					benchSinkF = sol.PrimalInfeas
				}
			})
		}
	}
}

func BenchmarkSolveIPM(b *testing.B) {
	for _, sc := range benchScales[:2] { // full solves: keep to the small scales
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/w%d", sc.name, w), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(sc.dim)))
				p := randomFeasibleSDP(rng, sc.dim, sc.m)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sol, err := SolveIPM(p, IPMOptions{Workers: w})
					if err != nil {
						b.Fatal(err)
					}
					benchSinkF = sol.PrimalObj
				}
			})
		}
	}
}

func BenchmarkSolveADMM(b *testing.B) {
	sc := benchScales[0]
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("%s/w%d", sc.name, w), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(sc.dim)))
			p := randomFeasibleSDP(rng, sc.dim, sc.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := SolveADMM(p, ADMMOptions{Workers: w, MaxIter: 300})
				if err != nil {
					b.Fatal(err)
				}
				benchSinkF = sol.PrimalObj
			}
		})
	}
}

// benchSequence builds the convex-iteration solve pattern: one base problem
// followed by perturbed-objective variants over identical constraints.
func benchSequence(seed int64, n, m, extra int) []*Problem {
	rng := rand.New(rand.NewSource(seed))
	base := randomFeasibleSDP(rng, n, m)
	seq := []*Problem{base}
	for k := 0; k < extra; k++ {
		seq = append(seq, perturbObjective(base, rng, 0.05))
	}
	return seq
}

// BenchmarkSolveSequenceIPM measures the warm-start win on the pattern that
// dominates end-to-end solve time: consecutive sub-problem solves whose
// objective moves while the constraints stay. cold solves each from scratch;
// warm threads the full prior state plus the assembly-reuse handle — the
// cold/warm ratio here is what the convex iteration saves per iterate.
func BenchmarkSolveSequenceIPM(b *testing.B) {
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			seq := benchSequence(41, 30, 40, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var prev *Solution
				reuse := &IPMReuse{}
				for _, p := range seq {
					var opt IPMOptions
					if mode == "warm" {
						if prev != nil {
							opt = warmIPMOptions(prev)
						}
						opt.Reuse = reuse
					}
					sol, err := SolveIPM(p, opt)
					if err != nil {
						b.Fatal(err)
					}
					prev = sol
					benchSinkF = sol.PrimalObj
				}
			}
		})
	}
}

// BenchmarkSolveSequenceADMM is the first-order counterpart, on a problem
// family ADMM solves to optimality so the iteration count (and thus the
// timing) reflects convergence, not an iteration cap.
func BenchmarkSolveSequenceADMM(b *testing.B) {
	for _, mode := range []string{"cold", "warm"} {
		b.Run(mode, func(b *testing.B) {
			rng := rand.New(rand.NewSource(43))
			n := 12
			c := linalg.NewDense(n, n)
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					v := rng.NormFloat64()
					c.Set(i, j, v)
					c.Set(j, i, v)
				}
			}
			base := minEigProblem(c)
			seq := []*Problem{base}
			for k := 0; k < 3; k++ {
				seq = append(seq, perturbObjective(base, rng, 0.05))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var prev *Solution
				for _, p := range seq {
					opt := ADMMOptions{Tol: 1e-6, MaxIter: 50000}
					if mode == "warm" && prev != nil {
						// Full prior state EXCEPT the penalty: resuming the
						// terminal adapted Mu on a changed objective stalls
						// the transient (see warmState in internal/core).
						opt.X0, opt.S0, opt.XLP0, opt.SLP0 = prev.X, prev.S, prev.XLP, prev.SLP
						opt.Y0 = prev.Y
					}
					sol, err := SolveADMM(p, opt)
					if err != nil {
						b.Fatal(err)
					}
					prev = sol
					benchSinkF = sol.PrimalObj
				}
			}
		})
	}
}

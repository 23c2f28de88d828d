package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// layerMetrics lists the per-layer metrics a traced run prints, in order.
// A layer the workload does not load reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"sdp.ipm_s", "s"},
	{"sdp.ipm_solves", "count"},
	{"sdp.ipm_iters", "count"},
	{"sdp.ipm_s_per_iter", "s"},
	{"sdp.ipm_iters_warm_mean", "count"},
	{"sdp.ipm_iters_cold_mean", "count"},
	{"sdp.m_mean", "count"},
	{"sdp.m_max", "count"},
	{"sdp.chol_retries", "count"},
	{"sdp.nonoptimal", "count"},
	{"linalg.schur_chol_gflop", "Gflop"},
	{"core.solve_s", "s"},
	{"core.build_s", "s"},
	{"core.self_s", "s"},
	{"core.convex_iters", "count"},
	{"core.alpha_rounds", "count"},
	{"core.subsolves", "count"},
	{"core.lazy_extra_rounds", "count"},
	{"core.warm_ratio", "ratio"},
	{"core.solver_iters_reported", "count"},
	{"optimize.lbfgs_runs", "count"},
	{"optimize.lbfgs_iters", "count"},
	{"optimize.lbfgs_evals", "count"},
	{"optimize.lbfgs_s", "s"},
	{"legalize.s", "s"},
	{"legalize.self_s", "s"},
	{"legalize.feasible_ratio", "ratio"},
	{"netlist.delta_apply_s", "s"},
	{"gsrc.generate_s", "s"},
	{"service.jobs", "count"},
	{"service.submit_s_p50", "s"},
	{"service.queue_wait_s_p50", "s"},
	{"service.solve_s_p50", "s"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejected", "count"},
	{"jobstore.records", "count"},
	{"jobstore.active_bytes", "B"},
	{"jobstore.compactions", "count"},
	{"parallel.cpu_per_wall", "ratio"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"trace.events", "count"},
	{"trace.overhead_s", "s"},
	{"trace.uncovered_s", "s"},
}

// setUp sets the workload up reps times and returns the last bench with
// every set-up time; the earlier benches are closed.
func setUp(e env, w workload, reps int) (bench, []float64, error) {
	var times []float64
	var b bench
	for i := 0; i < reps; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, nil, fmt.Errorf("close set-up: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if b, err = w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return b, times, nil
}

// sampleSetUp times reps more set-ups of the workload, closing each.
func sampleSetUp(e env, w workload, reps int) ([]float64, error) {
	b, times, err := setUp(e, w, reps)
	if err != nil {
		return nil, err
	}
	if err := b.close(); err != nil {
		return nil, fmt.Errorf("close set-up: %w", err)
	}
	return times, nil
}

// runTimed measures the end-to-end metrics, tracing off. The timed phase
// runs whole passes over the input list, so every input weighs the same in
// every statistic. The number of passes follows from the budget and the
// workload's nominal pass length, not from the clock, so a given budget
// always measures the same operations however fast the host runs that day;
// only a host slower than half the nominal speed cuts the phase short.
// Set-up is timed before the first pass and again after every pass, so its
// median samples the same host conditions as the operations do.
func runTimed(e env, w workload) (rep *report, err error) {
	b, setups, err := setUp(e, w, w.setupReps)
	if err != nil {
		return nil, err
	}
	rep = &report{}
	defer func() {
		if cerr := b.close(); cerr != nil && err == nil {
			rep.problem("close: %v", cerr)
		}
	}()

	var all, first []op
	var timed time.Duration
	var cpu float64
	planned := max(1, int(math.Round(e.budget.Seconds()/w.passSeconds)))
	passes := 0
	for passes < planned && timed < 2*e.budget && e.ctx.Err() == nil {
		cpu0 := cpuSeconds()
		t0 := time.Now()
		ops, err := b.pass(e.ctx)
		if err != nil {
			return nil, err
		}
		last := time.Since(t0)
		cpu += cpuSeconds() - cpu0
		timed += last
		passes++
		rep.countOps(ops)
		if first == nil {
			first = ops
		} else if w.repeatable {
			sameHPWL(rep, fmt.Sprintf("pass %d", passes), first, ops)
		}
		all = append(all, ops...)
		more, err := sampleSetUp(e, w, w.setupReps)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
	}
	wall := timed.Seconds()

	lat := walls(all)
	hpwl := sumHPWL(first)
	checkRepeat(rep, e, false, map[string]float64{"hpwl": hpwl})
	n := float64(len(all))
	rep.add("setup_s", "s", median(setups))
	rep.add("ops_per_s", "1/s", n/wall)
	rep.add("op_p50_s", "s", median(lat))
	rep.add("cpu_s_per_op", "s", cpu/n)
	rep.add("hpwl", "length", hpwl)
	rep.add("max_rss_mb", "MiB", maxRSSMB())

	rep.note("samples: %d operations in %d passes of %d over %.3f s; %d set-ups",
		len(all), passes, len(first), wall, len(setups))
	lats := make([]string, len(lat))
	for i, l := range lat {
		lats[i] = fmt.Sprintf("%.6f", l)
	}
	rep.note("latencies: %s s", strings.Join(lats, " "))
	if tail, pct, ok := tailLatency(lat); ok {
		rep.note("op_tail_s: %.6g s at p%.1f (%d samples, 10 beyond)", tail, pct, len(lat))
	} else {
		rep.note("op_tail_s: omitted, %d samples (needs 20)", len(lat))
	}
	rep.note("fail_ratio: %g (%d of %d)", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	return rep, nil
}

// runTraced measures the per-layer metrics: one untraced pass through the
// public API, then the same inputs through the layers' own functions with
// the benchmark's recorder, then a second untraced pass. The decomposition
// must reproduce the first pass's HPWL bit for bit.
func runTraced(e env, w workload) (rep *report, err error) {
	b, _, err := setUp(e, w, 1)
	if err != nil {
		return nil, err
	}
	rep = &report{}
	defer func() {
		if cerr := b.close(); cerr != nil && err == nil {
			rep.problem("close: %v", cerr)
		}
	}()

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	ref, err := b.pass(e.ctx)
	if err != nil {
		return nil, err
	}
	refWall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	rep.countOps(ref)

	rec := newRecorder()
	dec, err := b.layers(e.ctx, rec)
	if err != nil {
		return nil, err
	}
	sameHPWL(rep, "traced decomposition", ref, dec)
	for i := range ref {
		if i < len(dec) && !sameWork(ref[i], dec[i]) {
			rep.problem("traced decomposition op %d: convex-iteration counts differ from the untraced run", i)
		}
	}
	// A second untraced pass after the traced one, so the overhead estimate
	// is not biased by whichever of the two runs first on a cold heap.
	ref2, err := b.pass(e.ctx)
	if err != nil {
		return nil, err
	}
	rep.countOps(ref2)
	if w.repeatable {
		sameHPWL(rep, "second untraced pass", ref, ref2)
	}

	v := make(map[string]float64, len(layerMetrics))
	traceValues(v, rec, dec)
	b.layerValues(v)
	n := float64(len(ref))
	v["parallel.cpu_per_wall"] = cpu / refWall
	v["runtime.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
	v["runtime.gc_cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / n
	v["trace.overhead_s"] = meanSolve(dec, func(o op) time.Duration { return o.wall }) -
		meanSolve(append(ref, ref2...), func(o op) time.Duration { return o.solve })
	for _, m := range layerMetrics {
		rep.add(m.name, m.unit, v[m.name])
	}
	repeat := map[string]float64{"hpwl": sumHPWL(ref)}
	for _, k := range []string{"core.convex_iters", "core.subsolves", "sdp.ipm_iters", "optimize.lbfgs_evals"} {
		repeat[k] = v[k]
	}
	checkRepeat(rep, e, true, repeat)
	rep.note("traced: %d operations, untraced pass %.3f s; per-layer totals cover one pass", len(ref), refWall)
	rep.note("sub-solver iterations: %d counted from the trace over every lazy round, %d in Result.SolverIterations",
		int(v["sdp.ipm_iters"]), int(v["core.solver_iters_reported"]))
	return rep, nil
}

// sumHPWL totals the HPWL of a pass; a cache hit repeats an HPWL already
// counted.
func sumHPWL(ops []op) float64 {
	sum := 0.0
	for _, o := range ops {
		if !o.cached {
			sum += o.hpwl
		}
	}
	return sum
}

// walls returns the ops' latencies in seconds.
func walls(ops []op) []float64 {
	lat := make([]float64, len(ops))
	for i, o := range ops {
		lat[i] = o.wall.Seconds()
	}
	return lat
}

// meanSolve is the mean of d over the ops where it is positive: the solves,
// leaving out cache hits.
func meanSolve(ops []op, d func(op) time.Duration) float64 {
	var sum time.Duration
	n := 0
	for _, o := range ops {
		if t := d(o); t > 0 {
			sum += t
			n++
		}
	}
	return ratio(sum.Seconds(), float64(n))
}

// traceValues derives the per-layer values of a decomposition from its
// trace and its results.
func traceValues(v map[string]float64, rec *recorder, dec []op) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	ipm := rec.ipmSpan.Seconds()
	v["sdp.ipm_s"] = ipm
	v["sdp.ipm_solves"] = float64(rec.ipmSolves)
	v["sdp.ipm_iters"] = float64(rec.ipmIters)
	v["sdp.ipm_s_per_iter"] = ratio(ipm, float64(rec.ipmIters))
	v["sdp.ipm_iters_warm_mean"] = ratio(float64(rec.ipmItersWarm), float64(rec.ipmWarmRuns))
	v["sdp.ipm_iters_cold_mean"] = ratio(float64(rec.ipmItersCold), float64(rec.ipmColdRuns))
	v["sdp.m_mean"] = ratio(rec.mIters, float64(rec.ipmIters))
	v["sdp.m_max"] = rec.mMax
	v["sdp.chol_retries"] = float64(rec.cholRetries)
	v["sdp.nonoptimal"] = float64(rec.nonOptimal)
	v["linalg.schur_chol_gflop"] = rec.cholFlop / 1e9

	solve := rec.calls["core.solve"].Seconds()
	v["core.solve_s"] = solve
	v["core.build_s"] = rec.buildSpan.Seconds()
	v["core.self_s"] = solve - rec.buildSpan.Seconds() - ipm
	v["core.convex_iters"] = float64(rec.convexIters)
	v["core.alpha_rounds"] = float64(rec.alphaRounds)
	var iters, subs, warm, reported int
	for _, o := range dec {
		if o.global != nil {
			iters += o.global.Iterations
			subs += o.global.SubSolves
			warm += o.global.WarmStarts
			reported += o.global.SolverIterations
		}
	}
	v["core.subsolves"] = float64(subs)
	v["core.lazy_extra_rounds"] = float64(subs - iters)
	v["core.warm_ratio"] = ratio(float64(warm), float64(subs))
	v["core.solver_iters_reported"] = float64(reported)

	lbfgs := rec.lbfgsSpan.Seconds()
	v["optimize.lbfgs_runs"] = float64(rec.lbfgsRuns)
	v["optimize.lbfgs_iters"] = float64(rec.lbfgsIters)
	v["optimize.lbfgs_evals"] = float64(rec.lbfgsEvals)
	v["optimize.lbfgs_s"] = lbfgs
	leg := rec.calls["legalize"].Seconds()
	v["legalize.s"] = leg
	v["legalize.self_s"] = leg - lbfgs
	v["legalize.feasible_ratio"] = ratio(float64(rec.legalizeFeasible), float64(rec.legalizeCalls))
	v["netlist.delta_apply_s"] = rec.calls["netlist.delta_apply"].Seconds()

	var wall, covered time.Duration
	for _, o := range dec {
		wall += o.wall
	}
	for _, d := range rec.calls {
		covered += d
	}
	v["trace.events"] = float64(rec.events)
	v["trace.uncovered_s"] = ratio((wall - covered).Seconds(), float64(len(dec)))
}

// sameHPWL records a problem for every op of got whose HPWL is not
// bitwise equal to want's.
func sameHPWL(rep *report, what string, want, got []op) {
	if len(got) != len(want) {
		rep.problem("%s: %d operations, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if math.Float64bits(got[i].hpwl) != math.Float64bits(want[i].hpwl) {
			rep.problem("%s op %d: HPWL %.17g, want %.17g bit for bit", what, i, got[i].hpwl, want[i].hpwl)
		}
	}
}

// sameWork reports whether two runs of one input did the same
// convex-iteration work.
func sameWork(a, b op) bool {
	if a.global == nil || b.global == nil {
		return true
	}
	return a.global.Iterations == b.global.Iterations &&
		a.global.SubSolves == b.global.SubSolves &&
		a.global.WarmStarts == b.global.WarmStarts &&
		a.global.SolverIterations == b.global.SolverIterations
}

// tailLatency returns the highest order statistic with at least 10 samples
// beyond it, and its percentile, when there are at least 20 samples.
func tailLatency(lat []float64) (float64, float64, bool) {
	n := len(lat)
	if n < 20 {
		return 0, 0, false
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

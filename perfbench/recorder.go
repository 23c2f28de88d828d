package main

import (
	"sync"
	"time"

	"sdpfloor/internal/trace"
)

// recorder is the benchmark's own trace.Recorder. It stamps its own clock
// on the solvers' existing start/iter/final events and folds them into
// per-layer totals as they arrive, so spans and counts come from the
// benchmark without any tracing added to the program. It also keeps the
// wall time of every layer call the benchmark makes itself (call).
//
// The traced decomposition runs one solve at a time, so at most one run of
// each solver is open at once; the mutex only honours the Recorder
// contract of concurrent safety.
type recorder struct {
	mu     sync.Mutex
	events int

	calls map[string]time.Duration // benchmark-timed layer calls by name

	// sdp layer: interior-point sub-problem solves.
	ipmStart     time.Time
	ipmM         float64
	ipmWarm      bool
	ipmSpan      time.Duration
	ipmSolves    int
	ipmIters     int
	ipmItersWarm int
	ipmWarmRuns  int
	ipmItersCold int
	ipmColdRuns  int
	mIters       float64 // Σ m · iterations, for the iteration-weighted mean
	mMax         float64
	cholFlop     float64 // Σ over IPM iterations of m³/3
	cholRetries  int
	nonOptimal   int

	// core layer: the convex iteration.
	coreStart   time.Time
	coreOpen    bool
	firstSub    bool // the open core run has started its first sub-solve
	buildSpan   time.Duration
	convexIters int
	alphaRounds int
	alpha       float64

	// optimize layer: L-BFGS runs (the legalizer's shape optimization).
	lbfgsStart time.Time
	lbfgsSpan  time.Duration
	lbfgsRuns  int
	lbfgsIters int
	lbfgsEvals int

	// legalize layer: calls and how many fit the outline.
	legalizeCalls    int
	legalizeFeasible int
}

func newRecorder() *recorder { return &recorder{calls: make(map[string]time.Duration)} }

// Enabled reports true: the recorder wants every event.
func (r *recorder) Enabled() bool { return true }

// Record stamps ev with the benchmark's clock and folds it into the totals.
func (r *recorder) Record(ev trace.Event) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events++
	switch ev.Solver {
	case "ipm":
		r.ipm(now, ev)
	case "core":
		r.core(now, ev)
	case "lbfgs":
		r.lbfgs(now, ev)
	}
}

func (r *recorder) ipm(now time.Time, ev trace.Event) {
	switch ev.Kind {
	case trace.KindStart:
		r.ipmStart = now
		r.ipmM = field(ev, "m")
		r.ipmWarm = field(ev, "warm") == 1
		if r.coreOpen && !r.firstSub {
			r.firstSub = true
			r.buildSpan += now.Sub(r.coreStart)
		}
	case trace.KindIter:
		r.cholRetries += int(field(ev, "cholRetries"))
	case trace.KindFinal:
		r.ipmSpan += now.Sub(r.ipmStart)
		r.ipmSolves++
		r.ipmIters += ev.Iter
		if r.ipmWarm {
			r.ipmWarmRuns++
			r.ipmItersWarm += ev.Iter
		} else {
			r.ipmColdRuns++
			r.ipmItersCold += ev.Iter
		}
		it := float64(ev.Iter)
		r.mIters += r.ipmM * it
		r.cholFlop += it * r.ipmM * r.ipmM * r.ipmM / 3
		if r.ipmM > r.mMax {
			r.mMax = r.ipmM
		}
		if ev.Status != "optimal" {
			r.nonOptimal++
		}
	}
}

func (r *recorder) core(now time.Time, ev trace.Event) {
	switch ev.Kind {
	case trace.KindStart:
		r.coreStart, r.coreOpen, r.firstSub = now, true, false
		r.alpha = -1
	case trace.KindIter:
		r.convexIters++
		if a := field(ev, "alpha"); a != r.alpha {
			r.alphaRounds++
			r.alpha = a
		}
	case trace.KindFinal:
		r.coreOpen = false
	}
}

func (r *recorder) lbfgs(now time.Time, ev trace.Event) {
	switch ev.Kind {
	case trace.KindStart:
		r.lbfgsStart = now
	case trace.KindFinal:
		r.lbfgsSpan += now.Sub(r.lbfgsStart)
		r.lbfgsRuns++
		r.lbfgsIters += ev.Iter
		r.lbfgsEvals += int(field(ev, "evals"))
	}
}

// call times one layer call made by the benchmark and adds its wall time
// to the named total.
func (r *recorder) call(name string, fn func()) {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.mu.Lock()
	r.calls[name] += d
	r.mu.Unlock()
}

// legalized counts one legalize.Legalize result.
func (r *recorder) legalized(feasible bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.legalizeCalls++
	if feasible {
		r.legalizeFeasible++
	}
}

// field returns the named payload value of ev, or 0 when absent.
func field(ev trace.Event, key string) float64 {
	for _, f := range ev.Fields {
		if f.Key == key {
			return f.Val
		}
	}
	return 0
}

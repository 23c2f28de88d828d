package sdpfloor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"sdpfloor/internal/trace"
)

// TestPortfolioWinnerMatchesSoloBitwise is the differential oracle: a race
// win must be bitwise identical to running the winning method solo with the
// same seed and worker budget. Whichever contender wins (arrival order is
// wall-clock), its result is reproducible outside the race.
func TestPortfolioWinnerMatchesSoloBitwise(t *testing.T) {
	nl, out := smallNL(t)
	cfg := Config{Outline: out, Method: MethodPortfolio, Seed: 3}
	cfg.Portfolio.Contenders = []Method{MethodQP, MethodSA, MethodAnalytic}

	fp, err := Place(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Portfolio) != 3 {
		t.Fatalf("%d contender reports, want 3", len(fp.Portfolio))
	}
	var winner *PortfolioReport
	wonCount := 0
	for i := range fp.Portfolio {
		r := &fp.Portfolio[i]
		if r.Status == PortfolioWon {
			wonCount++
			winner = r
		}
	}
	if wonCount != 1 || winner == nil || string(fp.Winner) != winner.Name {
		t.Fatalf("want exactly one winner matching fp.Winner=%s, reports %+v", fp.Winner, fp.Portfolio)
	}

	solo := Config{Outline: out, Method: fp.Winner, Seed: 3}
	solo.Global.Workers = winner.Workers
	ref, err := Place(nl, solo)
	if err != nil {
		t.Fatalf("solo %s: %v", fp.Winner, err)
	}
	if math.Float64bits(fp.HPWL) != math.Float64bits(ref.HPWL) {
		t.Fatalf("HPWL differs: portfolio %v (%x), solo %v (%x)",
			fp.HPWL, math.Float64bits(fp.HPWL), ref.HPWL, math.Float64bits(ref.HPWL))
	}
	if fp.Feasible != ref.Feasible {
		t.Fatalf("feasible differs: portfolio %v, solo %v", fp.Feasible, ref.Feasible)
	}
	if len(fp.Rects) != len(ref.Rects) {
		t.Fatalf("rect count differs: %d vs %d", len(fp.Rects), len(ref.Rects))
	}
	for i := range fp.Rects {
		a, b := fp.Rects[i], ref.Rects[i]
		if math.Float64bits(a.MinX) != math.Float64bits(b.MinX) ||
			math.Float64bits(a.MinY) != math.Float64bits(b.MinY) ||
			math.Float64bits(a.MaxX) != math.Float64bits(b.MaxX) ||
			math.Float64bits(a.MaxY) != math.Float64bits(b.MaxY) {
			t.Fatalf("rect %d differs bitwise: portfolio %+v, solo %+v", i, a, b)
		}
	}
}

// cancelOnEvent cancels a context the first time the watched (solver, kind)
// event is recorded — a deterministic "mid-solve" trigger: the engine is by
// definition inside its loop when its own event fires, with no wall-clock
// timing involved.
type cancelOnEvent struct {
	inner  trace.Recorder
	solver string
	kind   string
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelOnEvent) Enabled() bool { return true }

func (c *cancelOnEvent) Record(ev trace.Event) {
	c.inner.Record(ev)
	if ev.Solver == c.solver && ev.Kind == c.kind {
		c.once.Do(c.cancel)
	}
}

// TestCancellationHygieneAllMethods cancels every solo engine mid-solve and
// checks the shared contract the portfolio race depends on: the error wraps
// context.Canceled, the solve unwinds promptly, and every trace run — the
// engine's own stream included — carries exactly one final event.
func TestCancellationHygieneAllMethods(t *testing.T) {
	// The engine stream each method reports under, and the event that
	// proves it is mid-solve (qp emits no iter events, so its start — which
	// is recorded after the entry cancellation check — is the trigger).
	cases := []struct {
		method  Method
		solver  string
		trigger string
	}{
		{MethodSDP, "core", trace.KindIter},
		// hier itself may emit no iter events on small instances; the inner
		// core iterations (see innerSolver) are the mid-solve trigger, and
		// the single hier final is still required.
		{MethodSDPHier, "hier", trace.KindIter},
		{MethodAR, "ar", trace.KindIter},
		{MethodPP, "pp", trace.KindIter},
		{MethodQP, "qp", trace.KindStart},
		{MethodSA, "sa", trace.KindIter},
		{MethodAnalytic, "analytic", trace.KindIter},
	}
	nl, out := smallNL(t)
	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.method), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ring := trace.NewRing(4096)
			rec := &cancelOnEvent{inner: ring, solver: innerSolver(tc.method), kind: tc.trigger, cancel: cancel}
			cfg := Config{Outline: out, Method: tc.method, Seed: 3, Trace: rec}

			start := time.Now()
			_, err := PlaceContext(ctx, nl, cfg)
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("solve returned after %s, cancellation is not bounded", elapsed)
			}

			// A cancelled span must still close with exactly one final.
			checkStreamPairing(t, ring.Snapshot(), tc.solver)
		})
	}
}

// TestTraceStreamsPairedAllMethods runs the pairing check of
// TestCancellationHygieneAllMethods on one uncancelled Place per method.
func TestTraceStreamsPairedAllMethods(t *testing.T) {
	cases := []struct {
		method Method
		solver string
	}{
		{MethodSDP, "core"},
		{MethodSDPHier, "hier"},
		{MethodAR, "ar"},
		{MethodPP, "pp"},
		{MethodQP, "qp"},
		{MethodSA, "sa"},
		{MethodAnalytic, "analytic"},
		{MethodPortfolio, "portfolio"},
	}
	nl, out := smallNL(t)
	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.method), func(t *testing.T) {
			ring := trace.NewRing(1 << 16)
			if _, err := Place(nl, Config{Outline: out, Method: tc.method, Seed: 3, Trace: ring}); err != nil {
				t.Fatal(err)
			}
			if ring.Dropped() != 0 {
				t.Fatalf("ring dropped %d events; the pairing check needs the whole stream", ring.Dropped())
			}
			checkStreamPairing(t, ring.Snapshot(), tc.solver)
		})
	}
}

// checkStreamPairing checks that every stream (solver and run id) of evs
// is a sequence of well-paired start…final spans and that the engine
// stream has exactly one final. Sub-solvers (ipm, lbfgs) legitimately run
// several sequential spans inside one engine run, but nothing may start
// a span while one is open, emit a final outside a span, or leave a span
// open.
func checkStreamPairing(t *testing.T, evs []trace.Event, engine string) {
	t.Helper()
	open := map[string]bool{}
	finals := map[string]int{}
	for _, ev := range evs {
		key := ev.Solver + "\x00" + ev.Run
		switch ev.Kind {
		case trace.KindStart:
			if open[key] {
				t.Fatalf("stream %q: start while a span is already open", key)
			}
			open[key] = true
		case trace.KindFinal:
			if !open[key] {
				t.Fatalf("stream %q: final without an open span", key)
			}
			open[key] = false
			finals[key]++
		}
	}
	for key, isOpen := range open {
		if isOpen {
			t.Fatalf("stream %q: span left open (start without final)", key)
		}
	}
	if n := finals[engine+"\x00"]; n != 1 {
		t.Fatalf("engine stream %q has %d final events, want exactly 1 (finals: %v)",
			engine, n, describeFinals(finals))
	}
}

// innerSolver names the stream whose events prove the method is mid-solve.
func innerSolver(m Method) string {
	switch m {
	case MethodSDP, MethodSDPHier:
		return "core"
	case MethodAR:
		return "ar"
	case MethodPP:
		return "pp"
	case MethodQP:
		return "qp"
	case MethodSA:
		return "sa"
	}
	return "analytic"
}

func describeFinals(finals map[string]int) string {
	out := ""
	for k, n := range finals {
		out += fmt.Sprintf("%q:%d ", k, n)
	}
	return out
}

// TestPortfolioWallTimeWithinBestSoloBudget is the scheduling acceptance
// check on a real n30 instance: with enough CPUs for every contender, a
// race must finish within 10% of its best solo contender (plus a small
// absolute slack for goroutine startup and timer granularity). With fewer
// CPUs than contenders the race is legitimately serialized, so the bound
// relaxes to the sum of the solo times.
func TestPortfolioWallTimeWithinBestSoloBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short")
	}
	d, err := LoadBenchmark("n30", 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	contenders := []Method{MethodQP, MethodSA, MethodAnalytic}

	best := time.Duration(math.MaxInt64)
	var sum time.Duration
	for _, m := range contenders {
		cfg := Config{Outline: d.Outline, Method: m, Seed: 3}
		cfg.Global.Workers = 1 // same budget each contender gets in the race
		start := time.Now()
		if _, err := Place(d.Netlist, cfg); err != nil {
			t.Fatalf("solo %s: %v", m, err)
		}
		el := time.Since(start)
		sum += el
		if el < best {
			best = el
		}
	}

	cfg := Config{Outline: d.Outline, Method: MethodPortfolio, Seed: 3}
	cfg.Portfolio.Contenders = contenders
	cfg.Global.Workers = len(contenders)
	start := time.Now()
	fp, err := Place(d.Netlist, cfg)
	raceWall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	const slack = 250 * time.Millisecond
	bound := best + best/10 + slack
	if runtime.GOMAXPROCS(0) < len(contenders) {
		bound = sum + sum/10 + slack
	}
	if raceWall > bound {
		t.Fatalf("portfolio wall %s exceeds bound %s (best solo %s, sum %s, GOMAXPROCS %d, winner %s)",
			raceWall, bound, best, sum, runtime.GOMAXPROCS(0), fp.Winner)
	}
	t.Logf("portfolio %s vs best solo %s (winner %s)", raceWall, best, fp.Winner)
}

// Package trace is the solver telemetry layer: a zero-dependency,
// allocation-conscious event sink threaded through every iterative solver
// (sdp.SolveIPM, sdp.SolveADMM, the core convex iteration, optimize
// L-BFGS, the baseline engines, the portfolio racer). Each solver loop
// opens one Run per invocation (Start), records one structured Event per
// iteration (Run.Iter) and closes the run with exactly one "final"
// (Run.End, deferred); recorders decide what to do with the events —
// discard (Nop), keep a bounded window (Ring), or stream JSONL (JSONL).
//
// Two contracts make traces useful for regression testing:
//
//   - Determinism: every field of an Event except TS is computed by the
//     solver from its iterate, so two runs of the same problem produce
//     byte-identical JSONL once timestamps are stripped (see StripTS). In
//     particular traces are identical across worker counts, extending the
//     bitwise-determinism guarantee of internal/parallel to telemetry.
//   - Clock isolation: solver packages never read the clock (enforced by
//     sdpvet's detrand analyzer). Timestamps are stamped inside the
//     Recorder implementations, which live outside the solver packages.
//
// See docs/TRACING.md for the event schema and cmd/tracesum for a
// summarizer.
package trace

// Kind values of an Event. Run records them (Start, Iter, End); consumers
// filter a trace on them.
const (
	KindStart = "start" // one per run, emitted before the first iteration
	KindIter  = "iter"  // one per completed iteration
	KindFinal = "final" // exactly one per run, on every exit path
)

// Field is one ordered key/value datum of an event. Fields are a slice,
// not a map, so serialization order is fixed by the emitting solver and
// traces stay byte-comparable.
type Field struct {
	Key string
	Val float64
}

// Event is one structured record emitted by an iterative solver.
type Event struct {
	// TS is the wall-clock timestamp in nanoseconds. It is stamped by the
	// Recorder implementation, never by the solver, and is the only
	// non-deterministic part of an event; StripTS removes it for diffing.
	TS int64
	// Solver identifies the emitting loop: "ipm", "admm", "core", "lbfgs",
	// "ar", "pp", "qp", "sa", "analytic", "hier", "portfolio".
	Solver string
	// Run scopes the event to one concurrent run of its solver. Solvers
	// leave it empty; a layer that multiplexes several solver trees into
	// one recorder (the portfolio racer, one goroutine tree per contender)
	// stamps it via WithRun so consumers can reassemble interleaved
	// start/iter/final sequences per run instead of by arrival order.
	Run string
	// Kind is the record type: "start" (one per run), "iter" (one per
	// completed iteration), "final" (exactly one per run, on every exit
	// path including cancellation and numerical failure).
	Kind string
	// Iter is the iteration index ("iter" events) or the total iteration
	// count ("final" events).
	Iter int
	// Status carries the terminal status on "final" events ("optimal",
	// "cancelled", ...); empty otherwise.
	Status string
	// Fields are the solver-specific numeric payload in a fixed order.
	Fields []Field
}

// Recorder receives solver events. Implementations must be safe for
// concurrent use (a traced run may span goroutines) and must never block
// the solver for long or panic — a Recorder failure must not take down a
// solve (JSONL latches write errors instead of propagating them).
type Recorder interface {
	// Enabled reports whether Record does anything. Start checks it once
	// per run and returns a nil Run when it is false, so a disabled
	// recorder has zero cost in the iteration loop.
	Enabled() bool
	// Record accepts one event. The recorder stamps ev.TS itself; callers
	// leave it zero.
	Record(ev Event)
}

// Nop is the disabled recorder: Enabled is false and Record discards.
// Start returns a nil Run for it, so Nop (like a nil Recorder) adds no
// per-iteration work — benchmarked in this package and gated by benchdiff
// on the solver side.
type Nop struct{}

// Enabled reports false: events are neither built nor stored.
func (Nop) Enabled() bool { return false }

// Record discards the event.
func (Nop) Record(Event) {}

// Multi fans events out to every enabled recorder in rs. Enabled reports
// whether any target is enabled. Nil entries are skipped.
func Multi(rs ...Recorder) Recorder {
	out := make(multi, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// WithRun wraps r so every event passing through carries the given run id
// (pre-existing run ids are preserved: an already-scoped event crossing a
// second WithRun layer keeps its inner, more specific scope). The portfolio
// racer wraps the job recorder once per contender, so the interleaved
// streams of concurrent contenders stay separable downstream. A nil or
// disabled r yields an equally disabled recorder.
func WithRun(r Recorder, run string) Recorder {
	if r == nil {
		return Nop{}
	}
	return runScoped{r: r, run: run}
}

type runScoped struct {
	r   Recorder
	run string
}

func (s runScoped) Enabled() bool { return s.r.Enabled() }

func (s runScoped) Record(ev Event) {
	if ev.Run == "" {
		ev.Run = s.run
	}
	s.r.Record(ev)
}

type multi []Recorder

func (m multi) Enabled() bool {
	for _, r := range m {
		if r.Enabled() {
			return true
		}
	}
	return false
}

func (m multi) Record(ev Event) {
	for _, r := range m {
		if r.Enabled() {
			r.Record(ev)
		}
	}
}

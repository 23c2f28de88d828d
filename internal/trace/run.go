package trace

// Run is one open start…final span of a solver loop. Start opens it and
// returns nil when tracing is off, so every method is a no-op on a nil
// Run and `tr != nil` is the loop's tracing guard. The engine idiom is
//
//	tr := trace.Start(opt.Trace, "ipm", func() []trace.Field { ... })
//	defer func() { tr.End(sol.Iterations, status, func() []trace.Field { ... }) }()
//
// with the deferred End on the statement right after Start, so every exit
// — convergence, early returns, cancellation, a panic — closes the run
// with exactly one final. sdpvet's tracefinal analyzer enforces the shape.
//
// Field slices are built by the callbacks, which run only when the
// recorder is enabled: with a nil or disabled recorder a Start/End bracket
// allocates nothing. A nil callback records no fields.
type Run struct {
	rec    Recorder
	solver string
	ended  bool
}

// Start records the run's "start" event and returns the open run, or nil
// when rec is nil or disabled (fields is then never called).
func Start(rec Recorder, solver string, fields func() []Field) *Run {
	if rec == nil || !rec.Enabled() {
		return nil
	}
	r := &Run{rec: rec, solver: solver}
	r.rec.Record(Event{Solver: solver, Kind: KindStart, Fields: build(fields)})
	return r
}

// Iter records one "iter" event.
func (r *Run) Iter(iter int, fields func() []Field) {
	if r == nil {
		return
	}
	r.rec.Record(Event{Solver: r.solver, Kind: KindIter, Iter: iter, Fields: build(fields)})
}

// End records the run's "final" event. Only the first call records: a
// second End, or End on a nil run, does nothing.
func (r *Run) End(iter int, status string, fields func() []Field) {
	if r == nil || r.ended {
		return
	}
	r.ended = true
	r.rec.Record(Event{Solver: r.solver, Kind: KindFinal, Iter: iter, Status: status, Fields: build(fields)})
}

// Bool encodes a boolean field value as 1 or 0.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func build(fields func() []Field) []Field {
	if fields == nil {
		return nil
	}
	return fields()
}

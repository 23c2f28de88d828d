package sdp

import "sdpvet.example/internal/trace"

// --- firing cases ---

// eventLiteral builds an event by hand instead of going through a Run.
func eventLiteral(rec trace.Recorder) {
	rec.Record(trace.Event{Solver: "ipm", Kind: "iter"}) // want tracefinal
}

// endNotDeferred closes the run inline, so the early return and any
// panic skip the final.
func endNotDeferred(rec trace.Recorder, iters int) {
	tr := trace.Start(rec, "ipm", nil) // want tracefinal
	for i := 0; i < iters; i++ {
		if i > 3 {
			return
		}
		tr.Iter(i, nil)
	}
	tr.End(iters, "done", nil)
}

// endDeferredLate registers the deferred End only after other work: a
// panic in between leaves the run open.
func endDeferredLate(rec trace.Recorder, work func()) {
	tr := trace.Start(rec, "admm", nil) // want tracefinal
	work()
	defer tr.End(0, "done", nil)
}

// --- silent cases ---

// engineRun is the engine idiom: Start, then the deferred End on the next
// statement; a nil run (tracing off) makes every call a no-op.
func engineRun(rec trace.Recorder, iters int) {
	status := "limit"
	tr := trace.Start(rec, "ipm", func() []trace.Field {
		return []trace.Field{{Key: "maxIter", Val: float64(iters)}}
	})
	defer func() {
		tr.End(iters, status, nil)
	}()
	for i := 0; i < iters; i++ {
		tr.Iter(i, nil)
		if i == 7 {
			status = "early"
			return
		}
	}
}

// raceRuns is the multi-run idiom: the race run's defer, registered
// before any contender run starts, ends the contender runs and then the
// race run.
func raceRuns(rec trace.Recorder, names []string) {
	var runs []*trace.Run
	race := trace.Start(rec, "portfolio", nil)
	defer func() {
		for i := range runs {
			runs[i].End(0, "lost", nil)
		}
		race.End(len(names), "won", nil)
	}()
	if race != nil {
		runs = make([]*trace.Run, len(names))
		for i, name := range names {
			runs[i] = trace.Start(trace.WithRun(rec, name), "portfolio", nil)
		}
	}
}

// goroutineRun scopes the contract per function literal: the goroutine
// body closes its own run.
func goroutineRun(rec trace.Recorder) {
	go func() {
		tr := trace.Start(rec, "worker", nil)
		defer tr.End(1, "done", nil)
	}()
}

// --- waived case ---

// openRun hands its run to the caller, which ends it.
func openRun(rec trace.Recorder) *trace.Run {
	//sdpvet:ignore tracefinal corpus demonstration: the caller defers End
	return trace.Start(rec, "ipm", nil)
}

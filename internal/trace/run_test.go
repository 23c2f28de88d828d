package trace

import "testing"

// bracket is the engine idiom: Start, the deferred End on the next
// statement, and one Iter per iteration, with fields built from locals.
func bracket(rec Recorder, iters int) (status string) {
	status = "limit"
	x := 0.0
	tr := Start(rec, "ipm", func() []Field {
		return []Field{{Key: "maxIter", Val: float64(iters)}}
	})
	defer func() {
		tr.End(iters, status, func() []Field {
			return []Field{{Key: "x", Val: x}, {Key: "ok", Val: Bool(status == "done")}}
		})
	}()
	for i := 0; i < iters; i++ {
		x += float64(i)
		tr.Iter(i, func() []Field { return []Field{{Key: "x", Val: x}} })
	}
	status = "done"
	return status
}

func TestRunDisabledRecordsNothing(t *testing.T) {
	for _, rec := range []Recorder{nil, Nop{}, WithRun(nil, "x")} {
		called := false
		fields := func() []Field { called = true; return nil }
		tr := Start(rec, "ipm", fields)
		if tr != nil {
			t.Fatalf("Start(%T) = %v, want nil", rec, tr)
		}
		tr.Iter(0, fields)
		tr.End(1, "done", fields)
		if called {
			t.Fatalf("Start(%T): fields built with tracing off", rec)
		}
		if allocs := testing.AllocsPerRun(100, func() { bracket(rec, 4) }); allocs != 0 {
			t.Fatalf("Start/End bracket on %T: %v allocs/op, want 0", rec, allocs)
		}
	}
}

func TestRunSecondEndIgnored(t *testing.T) {
	r := NewRing(8)
	tr := Start(r, "sa", nil)
	tr.End(3, "ok", nil)
	tr.End(4, "again", nil)
	evs := r.Snapshot()
	if len(evs) != 2 || evs[1].Kind != KindFinal || evs[1].Status != "ok" {
		t.Fatalf("events = %+v, want start then one final with status ok", evs)
	}
}

func TestRunPanicStillEnds(t *testing.T) {
	r := NewRing(8)
	func() {
		defer func() { _ = recover() }()
		tr := Start(r, "lbfgs", nil)
		defer func() { tr.End(0, "panicked", nil) }()
		tr.Iter(0, nil)
		panic("solver failure")
	}()
	finals := 0
	for _, ev := range r.Snapshot() {
		if ev.Kind == KindFinal {
			finals++
		}
	}
	if finals != 1 {
		t.Fatalf("%d finals after a panic, want exactly 1", finals)
	}
}

func TestRunCarriesWithRunID(t *testing.T) {
	r := NewRing(8)
	tr := Start(WithRun(r, "sa"), "portfolio", nil)
	tr.Iter(0, nil)
	tr.End(1, "won", nil)
	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev.Run != "sa" {
			t.Fatalf("event %+v lost the run id", ev)
		}
	}
}

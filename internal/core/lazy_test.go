package core

import (
	"math"
	"testing"

	"sdpfloor/internal/geom"
	"sdpfloor/internal/gsrc"
	"sdpfloor/internal/trace"
)

// lazyOutlineOptions is the configuration Place runs the global stage with:
// every enhancement, the lazy working set, and the design's fixed outline.
func lazyOutlineOptions(outline geom.Rect) Options {
	o := Options{LazyConstraints: true, Outline: &outline, Workers: 1}
	return o.WithAllEnhancements()
}

// builtinDesign loads a bundled GSRC design at the given outline aspect and
// 15% whitespace.
func builtinDesign(t *testing.T, name string, aspect float64) *gsrc.Design {
	t.Helper()
	d, err := gsrc.Builtin(name, aspect, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// assertOutlineRows checks every one of the 4n outline rows of Eq. 18 —
// resident in the final working set or not — against the result's centers,
// recomputing each inset from the netlist: a side may be violated by at
// most 1e-6 of the outline extent on its axis. Fixed modules are skipped;
// they carry no sides.
func assertOutlineRows(t *testing.T, d *gsrc.Design, res *Result) {
	t.Helper()
	o := d.Outline
	tolX, tolY := 1e-6*o.W(), 1e-6*o.H()
	for i, m := range d.Netlist.Modules {
		if m.Fixed {
			continue
		}
		inset := math.Sqrt(m.MinArea/m.MaxAspect) / 2
		c := res.Centers[i]
		for _, v := range []struct {
			name       string
			slack, tol float64
		}{
			{"minX", c.X - (o.MinX + inset), tolX},
			{"maxX", (o.MaxX - inset) - c.X, tolX},
			{"minY", c.Y - (o.MinY + inset), tolY},
			{"maxY", (o.MaxY - inset) - c.Y, tolY},
		} {
			if v.slack < -v.tol {
				t.Errorf("module %d side %s violated by %.3g (tolerance %.3g)", i, v.name, -v.slack, v.tol)
			}
		}
	}
}

// TestLazySolveSatisfiesEveryOutlineRow — with outline sides in the lazy
// working set, the final iterate must still satisfy all 4n outline rows,
// including the ones never admitted: on n10 at aspect 1 and 2, on n30, and
// on a solve seeded from a prior that puts modules outside the outline.
func TestLazySolveSatisfiesEveryOutlineRow(t *testing.T) {
	cases := []struct {
		name   string
		aspect float64
	}{{"n10", 1}, {"n10", 2}, {"n30", 1}}
	for _, tc := range cases {
		if tc.name == "n30" && testing.Short() {
			continue // ~10 s single-threaded; the n10 cases cover -short runs
		}
		d := builtinDesign(t, tc.name, tc.aspect)
		res, err := Solve(d.Netlist, lazyOutlineOptions(d.Outline))
		if err != nil {
			t.Fatalf("%s aspect %g: %v", tc.name, tc.aspect, err)
		}
		assertOutlineRows(t, d, res)
	}

	d := builtinDesign(t, "n10", 1)
	opt := lazyOutlineOptions(d.Outline)
	base, err := Solve(d.Netlist, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Push every third module past a different outline side, as an ECO
	// delta that grew the modules around it would.
	prior := append([]geom.Point(nil), base.Centers...)
	for i := 0; i < len(prior); i += 3 {
		switch (i / 3) % 4 {
		case 0:
			prior[i].X = d.Outline.MinX - 0.2*d.Outline.W()
		case 1:
			prior[i].X = d.Outline.MaxX + 0.2*d.Outline.W()
		case 2:
			prior[i].Y = d.Outline.MinY - 0.2*d.Outline.H()
		default:
			prior[i].Y = d.Outline.MaxY + 0.2*d.Outline.H()
		}
	}
	opt.Prior = &Prior{Centers: prior}
	res, err := Solve(d.Netlist, opt)
	if err != nil {
		t.Fatalf("prior-seeded solve: %v", err)
	}
	assertOutlineRows(t, d, res)
}

// TestLazySidesOnlyGrow — within one Solve, the resident outline sides
// (the core iter events' "sides" field) never shrink, and a fixed module
// never gets one: the count stays within 4 per free module.
func TestLazySidesOnlyGrow(t *testing.T) {
	d := builtinDesign(t, "n10", 2)
	nl := d.Netlist
	nl.Modules[0].Fixed = true
	nl.Modules[0].FixedPos = d.Outline.Center()
	ring := trace.NewRing(1 << 16)
	opt := lazyOutlineOptions(d.Outline)
	opt.Trace = ring
	if _, err := Solve(nl, opt); err != nil {
		t.Fatal(err)
	}
	prev, iters := 0.0, 0
	for _, ev := range ring.Snapshot() {
		if ev.Solver != "core" || ev.Kind != trace.KindIter {
			continue
		}
		iters++
		sides := fieldValue(t, ev, "sides")
		if sides < prev {
			t.Fatalf("core iter %d: %g resident sides, down from %g", ev.Iter, sides, prev)
		}
		if max := float64(4 * (nl.N() - 1)); sides > max {
			t.Fatalf("core iter %d: %g resident sides, more than the %g of the free modules", ev.Iter, sides, max)
		}
		if cons := fieldValue(t, ev, "cons"); sides > cons {
			t.Fatalf("core iter %d: %g sides but only %g working-set rows", ev.Iter, sides, cons)
		}
		prev = sides
	}
	if iters == 0 || prev == 0 {
		t.Fatalf("%d core iterations ending with %g resident sides; the outline never engaged", iters, prev)
	}

	// The builder itself: the full set and a violation scan of an iterate
	// with every module far outside the outline name no side of module 0.
	opt.setDefaults()
	bld := newBuilder(nl, &opt)
	far := make([]geom.Point, nl.N())
	for i := range far {
		far[i] = geom.Point{X: d.Outline.MinX - d.Outline.W(), Y: d.Outline.MaxY + d.Outline.H()}
	}
	viol := bld.violatedPairs(priorZ(far), map[pair]bool{}, 0)
	sides := 0
	for _, set := range [][]pair{bld.allPairs(), viol} {
		for _, p := range set {
			if p.isSide() && p.i == 0 {
				t.Fatalf("fixed module 0 got outline side %d", p.j)
			}
		}
	}
	for _, p := range viol {
		if p.isSide() {
			sides++
		}
	}
	if want := 2 * (nl.N() - 1); sides != want {
		t.Fatalf("violation scan admitted %d sides, want %d (minX and maxY of each free module)", sides, want)
	}
}

// TestSolverIterationsCountEveryLazyRound — Result.SolverIterations, the
// core final event's solverIters and the per-iteration solverIters all
// count the solver iterations of every lazy round, so they equal the
// iterations the solver's own trace events report.
func TestSolverIterationsCountEveryLazyRound(t *testing.T) {
	d := builtinDesign(t, "n10", 1)
	ring := trace.NewRing(1 << 16)
	opt := lazyOutlineOptions(d.Outline)
	opt.Trace = ring
	res, err := Solve(d.Netlist, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.SubSolves <= res.Iterations {
		t.Fatalf("%d sub-solves over %d convex iterations: no lazy round to count", res.SubSolves, res.Iterations)
	}
	ipm, perIter, final := 0, 0, -1
	for _, ev := range ring.Snapshot() {
		switch {
		case ev.Solver == "ipm" && ev.Kind == trace.KindFinal:
			ipm += ev.Iter
		case ev.Solver == "core" && ev.Kind == trace.KindIter:
			perIter += int(fieldValue(t, ev, "solverIters"))
		case ev.Solver == "core" && ev.Kind == trace.KindFinal:
			final = int(fieldValue(t, ev, "solverIters"))
		}
	}
	history := 0
	for _, h := range res.History {
		history += h.SolverIters
	}
	if res.SolverIterations != ipm || final != ipm || perIter != ipm || history != ipm {
		t.Fatalf("solver iterations: Result %d, core final %d, core iters %d, History %d; ipm finals %d",
			res.SolverIterations, final, perIter, history, ipm)
	}
}

// fieldValue returns the named payload value of ev, failing when absent.
func fieldValue(t *testing.T, ev trace.Event, key string) float64 {
	t.Helper()
	for _, f := range ev.Fields {
		if f.Key == key {
			return f.Val
		}
	}
	t.Fatalf("%s %s event has no %q field: %+v", ev.Solver, ev.Kind, key, ev.Fields)
	return 0
}

package main

import (
	"regexp"
	"strings"
	"testing"

	"sdpfloor/internal/trace"
)

// syntheticTrace renders a two-solver trace with fixed timestamps: one core
// run wrapping two IPM runs, cancellation on the second.
func syntheticTrace(t *testing.T) string {
	t.Helper()
	evs := []trace.Event{
		{TS: 0, Solver: "core", Kind: "start", Fields: []trace.Field{{Key: "n", Val: 10}}},
		{TS: 10, Solver: "ipm", Kind: "start", Fields: []trace.Field{{Key: "m", Val: 55}}},
		{TS: 1e6, Solver: "ipm", Kind: "iter", Iter: 0, Fields: []trace.Field{{Key: "mu", Val: 1.5}, {Key: "relP", Val: 0.1}}},
		{TS: 2e6, Solver: "ipm", Kind: "iter", Iter: 1, Fields: []trace.Field{{Key: "mu", Val: 0.2}, {Key: "relP", Val: 0.01}}},
		{TS: 3e6, Solver: "ipm", Kind: "final", Iter: 2, Status: "optimal", Fields: []trace.Field{{Key: "relP", Val: 1e-9}}},
		{TS: 4e6, Solver: "core", Kind: "iter", Iter: 0, Fields: []trace.Field{{Key: "alpha", Val: 0.5}, {Key: "wz", Val: 3.5}, {Key: "cons", Val: 52}, {Key: "sides", Val: 7}}},
		{TS: 5e6, Solver: "ipm", Kind: "start", Fields: []trace.Field{{Key: "m", Val: 55}}},
		{TS: 6e6, Solver: "ipm", Kind: "iter", Iter: 0, Fields: []trace.Field{{Key: "mu", Val: 1.1}}},
		{TS: 7e6, Solver: "ipm", Kind: "final", Iter: 1, Status: "cancelled", Fields: nil},
		{TS: 8e6, Solver: "core", Kind: "final", Iter: 1, Status: "cancelled", Fields: []trace.Field{{Key: "wz", Val: 3.5}}},
	}
	var b []byte
	for _, ev := range evs {
		b = trace.AppendJSON(b, ev)
		b = append(b, '\n')
	}
	return string(b)
}

func TestRunSummarizesPerSolver(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(syntheticTrace(t)), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"10 events",
		"core", "ipm",
		"optimal:1 cancelled:1", // two ipm runs, statuses in order
		"cancelled:1",           // the core run
		"ipm, last run: 1 iterations, cancelled",
		"core, last run: 1 iterations, cancelled",
		"alpha", "wz", "mu", // convergence-table columns
		"cons", "sides", // core working-set rows and the resident outline sides among them
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunSolverFilter(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(syntheticTrace(t)), &out, "core", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Contains(got, "ipm") {
		t.Errorf("-solver core output mentions ipm:\n%s", got)
	}
	if !strings.Contains(got, "core") {
		t.Errorf("-solver core output missing core:\n%s", got)
	}
}

func TestRunTailTruncatesTable(t *testing.T) {
	var b []byte
	b = append(b, []byte(`{"ts":1,"solver":"lbfgs","kind":"start","iter":0,"n":4}`+"\n")...)
	for i := 0; i < 25; i++ {
		b = trace.AppendJSON(b, trace.Event{
			TS: int64(i + 2), Solver: "lbfgs", Kind: "iter", Iter: i,
			Fields: []trace.Field{{Key: "f", Val: float64(100 - i)}},
		})
		b = append(b, '\n')
	}
	b = append(b, []byte(`{"ts":99,"solver":"lbfgs","kind":"final","iter":25,"status":"converged","f":75}`+"\n")...)

	var out strings.Builder
	if err := run(strings.NewReader(string(b)), &out, "", 5); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "(20 earlier rows omitted; -tail 5)") {
		t.Errorf("missing truncation note:\n%s", got)
	}
	// Only the last 5 iteration indices survive.
	if strings.Contains(got, "\n19  ") || !strings.Contains(got, "24") {
		t.Errorf("tail rows wrong:\n%s", got)
	}
}

func TestRunRejectsMalformedLine(t *testing.T) {
	var out strings.Builder
	err := run(strings.NewReader("{\"ts\":1,\"solver\":\"ipm\"\n"), &out, "", 0)
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("want line-1 parse error, got %v", err)
	}
}

func TestRunEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(""), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no events") {
		t.Errorf("want 'no events', got %q", out.String())
	}
}

// TestRunKeysInterleavedRunsBySolverAndRun: two concurrent runs of the
// same solver (portfolio contenders) interleave their events; each event
// must pair with the start carrying the same run id, not the most recent
// arrival. The buggy arrival-order keying attributed both runs' iters to
// run B and invented a third run for A's final.
func TestRunKeysInterleavedRunsBySolverAndRun(t *testing.T) {
	in := `{"ts":1,"solver":"ipm","run":"A","kind":"start","iter":0,"m":55}
{"ts":2,"solver":"ipm","run":"B","kind":"start","iter":0,"m":55}
{"ts":3,"solver":"ipm","run":"A","kind":"iter","iter":0,"mu":1.5}
{"ts":4,"solver":"ipm","run":"B","kind":"iter","iter":0,"mu":1.2}
{"ts":5,"solver":"ipm","run":"A","kind":"iter","iter":1,"mu":0.5}
{"ts":6,"solver":"ipm","run":"B","kind":"final","iter":1,"status":"optimal"}
{"ts":7,"solver":"ipm","run":"A","kind":"final","iter":2,"status":"cancelled"}
`
	var out strings.Builder
	if err := run(strings.NewReader(in), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !regexp.MustCompile(`ipm\s+2\s`).MatchString(got) {
		t.Errorf("want exactly 2 ipm runs:\n%s", got)
	}
	if !strings.Contains(got, "optimal:1 cancelled:1") {
		t.Errorf("statuses wrong:\n%s", got)
	}
	// The most recently started run (B) owns exactly its own iter event.
	if !strings.Contains(got, "ipm (run B), last run: 1 iterations, optimal") {
		t.Errorf("last-run attribution wrong:\n%s", got)
	}
}

// TestRunPortfolioSection: a portfolio trace gets a winner/contender table.
func TestRunPortfolioSection(t *testing.T) {
	in := `{"solver":"portfolio","kind":"start","iter":0,"contenders":2,"workers":2}
{"solver":"portfolio","run":"A","kind":"start","iter":0,"contender":0,"workers":1}
{"solver":"portfolio","run":"B","kind":"start","iter":0,"contender":1,"workers":1}
{"solver":"portfolio","run":"A","kind":"iter","iter":0,"contender":0,"complete":1,"feasible":1,"partial":0,"hpwl":100}
{"solver":"portfolio","run":"B","kind":"iter","iter":1,"contender":1,"complete":0,"feasible":0,"partial":1,"hpwl":150}
{"solver":"portfolio","run":"A","kind":"final","iter":0,"status":"won","contender":0,"feasible":1,"hpwl":100}
{"solver":"portfolio","run":"B","kind":"final","iter":1,"status":"cancelled","contender":1,"feasible":0,"hpwl":150}
{"solver":"portfolio","kind":"final","iter":2,"status":"won","winner":0,"hpwl":100,"feasible":1}
`
	var out strings.Builder
	if err := run(strings.NewReader(in), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "portfolio race: winner A (won)") {
		t.Errorf("missing race header:\n%s", got)
	}
	if !regexp.MustCompile(`A\s+won\s+100\.0\s+yes`).MatchString(got) {
		t.Errorf("winner row wrong:\n%s", got)
	}
	if !regexp.MustCompile(`B\s+cancelled\s+150\.0\s+no`).MatchString(got) {
		t.Errorf("cancelled row wrong:\n%s", got)
	}
}

// TestRunSurvivesDroppedStart mimics a ring-truncated trace: iter/final
// events whose "start" was evicted must still aggregate into a run.
func TestRunSurvivesDroppedStart(t *testing.T) {
	in := `{"ts":5,"solver":"admm","kind":"iter","iter":7,"pres":0.5}
{"ts":6,"solver":"admm","kind":"final","iter":8,"status":"optimal","pres":1e-6}
`
	var out strings.Builder
	if err := run(strings.NewReader(in), &out, "", 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "admm") || !strings.Contains(got, "optimal:1") {
		t.Errorf("dropped-start trace not summarized:\n%s", got)
	}
}

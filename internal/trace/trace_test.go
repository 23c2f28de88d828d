package trace

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func sampleEvent() Event {
	return Event{
		Solver: "ipm", Kind: "iter", Iter: 3,
		Fields: []Field{
			{Key: "mu", Val: 1.25e-05},
			{Key: "relP", Val: 0.5},
			{Key: "steps", Val: 7},
		},
	}
}

func TestJSONLDeterministicTSFirst(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Clock = func() int64 { return 42 }
	j.Record(sampleEvent())
	j.Record(Event{Solver: "ipm", Kind: "final", Iter: 9, Status: "optimal",
		Fields: []Field{{Key: "relG", Val: 1e-8}}})

	want := `{"ts":42,"solver":"ipm","kind":"iter","iter":3,"mu":1.25e-05,"relP":0.5,"steps":7}
{"ts":42,"solver":"ipm","kind":"final","iter":9,"status":"optimal","relG":1e-08}
`
	if got := buf.String(); got != want {
		t.Fatalf("jsonl output:\n%s\nwant:\n%s", got, want)
	}
	if j.Lines() != 2 {
		t.Fatalf("Lines() = %d, want 2", j.Lines())
	}
	if j.Err() != nil {
		t.Fatalf("Err() = %v", j.Err())
	}
}

func TestStripTS(t *testing.T) {
	cases := []struct{ in, want string }{
		{`{"ts":42,"solver":"ipm","kind":"iter","iter":3}`, `{"solver":"ipm","kind":"iter","iter":3}`},
		{`{"ts":-1,"solver":"x","kind":"y","iter":0}`, `{"solver":"x","kind":"y","iter":0}`},
		{`{"solver":"ipm"}`, `{"solver":"ipm"}`}, // no ts: unchanged
		{`not json`, `not json`},
	}
	for _, c := range cases {
		if got := StripTS(c.in); got != c.want {
			t.Errorf("StripTS(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Two lines differing only in ts become identical after stripping.
	a := string(AppendJSON(nil, Event{TS: 1, Solver: "ipm", Kind: "iter", Iter: 1}))
	b := string(AppendJSON(nil, Event{TS: 99, Solver: "ipm", Kind: "iter", Iter: 1}))
	if StripTS(a) != StripTS(b) {
		t.Fatalf("stripped lines differ: %q vs %q", StripTS(a), StripTS(b))
	}
}

func TestParseLineRoundTrip(t *testing.T) {
	evs := []Event{
		{TS: 123, Solver: "ipm", Kind: "start", Iter: 0,
			Fields: []Field{{Key: "m", Val: 40}, {Key: "tol", Val: 1e-7}}},
		sampleEvent(),
		{TS: -5, Solver: "admm", Kind: "final", Iter: 77, Status: "cancelled",
			Fields: []Field{{Key: "pres", Val: math.NaN()},
				{Key: "up", Val: math.Inf(1)}, {Key: "down", Val: math.Inf(-1)}}},
		{TS: 0, Solver: "lbfgs", Kind: "iter", Iter: 2},
	}
	for _, ev := range evs {
		line := AppendJSON(nil, ev)
		got, err := ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%s): %v", line, err)
		}
		if got.TS != ev.TS || got.Solver != ev.Solver || got.Kind != ev.Kind ||
			got.Iter != ev.Iter || got.Status != ev.Status || len(got.Fields) != len(ev.Fields) {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, ev)
		}
		for i, f := range ev.Fields {
			g := got.Fields[i]
			same := g.Val == f.Val || (math.IsNaN(g.Val) && math.IsNaN(f.Val))
			if g.Key != f.Key || !same {
				t.Fatalf("field %d mismatch: %+v vs %+v", i, g, f)
			}
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		``, `{`, `not json`, `{"ts":}`, `{"ts":"x"}`, `{"iter":1.5.2}`,
		`{"solver":5}`, `{"ts":1,"mu":"huge"}`, `{"ts":1} extra`,
		`{"ts":1 "solver":"x"}`,
	}
	for _, s := range bad {
		if _, err := ParseLine([]byte(s)); err == nil {
			t.Errorf("ParseLine(%q) = nil error, want failure", s)
		}
	}
	if _, err := ParseLine([]byte(`{}`)); err != nil {
		t.Errorf("ParseLine({}) = %v, want nil", err)
	}
}

func TestRingWrapsAndCounts(t *testing.T) {
	r := NewRing(4)
	r.Clock = func() int64 { return 7 }
	for i := 0; i < 10; i++ {
		r.Record(Event{Solver: "ipm", Kind: "iter", Iter: i})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, ev := range snap {
		if ev.Iter != 6+i {
			t.Fatalf("snapshot[%d].Iter = %d, want %d (oldest-first order)", i, ev.Iter, 6+i)
		}
		if ev.TS != 7 {
			t.Fatalf("ring did not stamp TS: %+v", ev)
		}
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("Total=%d Dropped=%d, want 10/6", r.Total(), r.Dropped())
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	r.Record(Event{Iter: 0})
	r.Record(Event{Iter: 1})
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Iter != 0 || snap[1].Iter != 1 {
		t.Fatalf("partial snapshot wrong: %+v", snap)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestNopDisabled(t *testing.T) {
	var n Nop
	if n.Enabled() {
		t.Fatal("Nop.Enabled() = true")
	}
	n.Record(Event{}) // must not panic
}

func TestMulti(t *testing.T) {
	r := NewRing(8)
	m := Multi(nil, Nop{}, r)
	if !m.Enabled() {
		t.Fatal("Multi with an enabled ring reports disabled")
	}
	m.Record(Event{Solver: "core", Kind: "iter", Iter: 1})
	if got := len(r.Snapshot()); got != 1 {
		t.Fatalf("ring received %d events, want 1", got)
	}
	if Multi(Nop{}, nil).Enabled() {
		t.Fatal("Multi of disabled recorders reports enabled")
	}
}

// TestConcurrentRecord exercises Ring and JSONL from several goroutines;
// meaningful under -race (the suite runs race in CI).
func TestConcurrentRecord(t *testing.T) {
	r := NewRing(16)
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ev := Event{Solver: "ipm", Kind: "iter", Iter: i,
					Fields: []Field{{Key: "g", Val: float64(g)}}}
				r.Record(ev)
				j.Record(ev)
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 200 {
		t.Fatalf("ring total = %d, want 200", r.Total())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 200 {
		t.Fatalf("jsonl wrote %d lines, want 200", len(lines))
	}
	for _, ln := range lines {
		if _, err := ParseLine([]byte(ln)); err != nil {
			t.Fatalf("interleaved write corrupted a line: %v", err)
		}
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errWrite
	}
	f.n--
	return len(p), nil
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "sink failed" }

func TestJSONLLatchesWriteError(t *testing.T) {
	j := NewJSONL(&failWriter{n: 1})
	j.Record(sampleEvent())
	j.Record(sampleEvent())
	j.Record(sampleEvent())
	if j.Err() == nil {
		t.Fatal("Err() = nil after sink failure")
	}
	if j.Lines() != 1 {
		t.Fatalf("Lines() = %d, want 1 (later events dropped)", j.Lines())
	}
}

// BenchmarkDisabledGuard measures the solver-side cost of tracing when it
// is off: the nil/Enabled guard must keep event construction out of the
// loop entirely, and a whole Start/deferred-End bracket (the "bracket"
// rows) must cost no allocation.
func BenchmarkDisabledGuard(b *testing.B) {
	run := func(b *testing.B, rec Recorder) {
		acc := 0.0
		for i := 0; i < b.N; i++ {
			if rec != nil && rec.Enabled() {
				rec.Record(Event{Solver: "ipm", Kind: "iter", Iter: i,
					Fields: []Field{{Key: "mu", Val: 1.0}}})
			}
			acc += float64(i)
		}
		_ = acc
	}
	runBracket := func(b *testing.B, rec Recorder) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bracket(rec, 4)
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("nop", func(b *testing.B) { run(b, Nop{}) })
	b.Run("bracket-nil", func(b *testing.B) { runBracket(b, nil) })
	b.Run("bracket-nop", func(b *testing.B) { runBracket(b, Nop{}) })
}

func BenchmarkRingRecord(b *testing.B) {
	r := NewRing(4096)
	ev := sampleEvent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(ev)
	}
}

func TestRunFieldRoundTrip(t *testing.T) {
	ev := Event{TS: 7, Solver: "ipm", Run: "sdp", Kind: "final", Iter: 4, Status: "optimal",
		Fields: []Field{{Key: "relG", Val: 2}}}
	line := AppendJSON(nil, ev)
	want := `{"ts":7,"solver":"ipm","run":"sdp","kind":"final","iter":4,"status":"optimal","relG":2}`
	if string(line) != want {
		t.Fatalf("AppendJSON = %s, want %s", line, want)
	}
	got, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.Run != "sdp" || got.Solver != "ipm" || got.Status != "optimal" {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	// Empty run serializes exactly as before the field existed.
	ev.Run = ""
	if s := string(AppendJSON(nil, ev)); strings.Contains(s, "run") {
		t.Fatalf("empty run must be omitted, got %s", s)
	}
}

func TestWithRunStampsAndPreserves(t *testing.T) {
	r := NewRing(8)
	wrapped := WithRun(r, "sa")
	if !wrapped.Enabled() {
		t.Fatal("WithRun over an enabled recorder must be enabled")
	}
	wrapped.Record(Event{Solver: "sa", Kind: "start"})
	// An inner, more specific run id survives an outer WithRun layer.
	WithRun(wrapped, "outer").Record(Event{Solver: "lbfgs", Kind: "final", Run: "inner"})
	evs := r.Snapshot()
	if len(evs) != 2 || evs[0].Run != "sa" || evs[1].Run != "inner" {
		t.Fatalf("runs = %v", evs)
	}
	if WithRun(nil, "x").Enabled() {
		t.Fatal("WithRun(nil) must be disabled")
	}
}

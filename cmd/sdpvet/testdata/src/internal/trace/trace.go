// Package trace is the corpus stand-in for the telemetry layer: the Event
// type and the Start/Run helper tracefinal recognizes by name and package
// suffix.
package trace

// Field is one key/value datum of an event.
type Field struct {
	Key string
	Val float64
}

// Event is one structured solver record.
type Event struct {
	TS     int64
	Solver string
	Run    string
	Kind   string
	Iter   int
	Status string
	Fields []Field
}

// Recorder receives solver events.
type Recorder interface {
	Enabled() bool
	Record(ev Event)
}

// WithRun scopes every event of r to one run id.
func WithRun(r Recorder, run string) Recorder { return r }

// Run is one open start…final span.
type Run struct {
	rec    Recorder
	solver string
	ended  bool
}

// Start records a start event and opens the run; nil when rec is off.
func Start(rec Recorder, solver string, fields func() []Field) *Run {
	if rec == nil || !rec.Enabled() {
		return nil
	}
	rec.Record(Event{Solver: solver, Kind: "start"})
	return &Run{rec: rec, solver: solver}
}

// Iter records an iter event.
func (r *Run) Iter(iter int, fields func() []Field) {
	if r != nil {
		r.rec.Record(Event{Solver: r.solver, Kind: "iter", Iter: iter})
	}
}

// End records the run's final once.
func (r *Run) End(iter int, status string, fields func() []Field) {
	if r != nil && !r.ended {
		r.ended = true
		r.rec.Record(Event{Solver: r.solver, Kind: "final", Iter: iter, Status: status})
	}
}

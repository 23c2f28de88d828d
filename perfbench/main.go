// Command perfbench is the repository benchmark. It drives the floorplanner
// through its public API (sdpfloor.Place, sdpfloor.Resolve, and the
// in-process service.Server) on a fixed set of workloads, checks every
// returned floorplan with its own independent checker, and prints the
// end-to-end metrics. With -trace 1 it instead runs the same inputs once
// untraced and once through the layers' own functions with a tracing
// recorder, and prints the per-layer metrics. See README.md.
//
//	go build -o perfbench . && ./perfbench -workload place-n10 -seed 1 -seconds 20
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// any output fails the independent check or any determinism check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runDeadline bounds one benchmark process, set-up included, so a hung or
// pathologically slow solve fails the run instead of outliving the caller's
// time limit.
const runDeadline = 170 * time.Second

// env is what every workload receives: the workload's name and seed, the
// timed-phase budget, the deadline context, and a scratch directory for
// files.
type env struct {
	ctx      context.Context
	workload string
	seed     int64
	budget   time.Duration
	scratch  string
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all in turn")
	seed := flag.Int64("seed", 0, "workload seed; 0 reproduces the builtin n10/n30 instances")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer decomposition instead of the timed run")
	scratch := flag.String("scratch", os.TempDir(), "directory for the service workload's journal and the determinism records")
	flag.Parse()

	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traced, *scratch))
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s, or all), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	e := env{ctx: ctx, workload: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second, scratch: *scratch}

	fmt.Printf("perfbench: workload %s seed %d seconds %d trace %d\n", *name, *seed, *seconds, *traced)
	fmt.Printf("env: nproc %d GOMAXPROCS %d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	var rep *report
	var err error
	if *traced == 1 {
		rep, err = runTraced(e, w)
	} else {
		rep, err = runTimed(e, w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep.print()
	if !rep.correct() {
		os.Exit(1)
	}
}

// runAll runs every workload in turn, each in a process of its own so that
// peak memory and heap state are the workload's alone, and returns the exit
// status: 0 when every run completed and passed its checks.
func runAll(seed int64, seconds, traced int, scratch string) int {
	status := 0
	for _, n := range workloadNames() {
		cmd := exec.Command(os.Args[0], "-workload", n, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-scratch", scratch)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			status = 1
		}
	}
	return status
}

// metric is one named, unit-carrying number of a report.
type metric struct {
	name  string
	unit  string
	value float64
}

// report collects a run's outcome: operation counts, metrics in print
// order, free-form lines, and every correctness problem found.
type report struct {
	attempted, failed int
	metrics           []metric
	lines             []string
	problems          []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// countOps folds a pass's operations into the attempted/failed counts and
// records each failure's reason as a problem.
func (r *report) countOps(ops []op) {
	for i, o := range ops {
		r.attempted++
		if o.fail != "" {
			r.failed++
			r.problem("op %d: %s", i, o.fail)
		}
	}
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// print writes the human-readable lines and then, as the last line, the
// JSON result object.
func (r *report) print() {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, m := range r.metrics {
		fmt.Printf("%-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, p := range r.problems {
		fmt.Println("FAIL:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Command perfbench is deesim's end-to-end benchmark. It runs one named
// workload against the shipped binaries (deesim, deesimd, deesim-coord),
// checks that every output is correct, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end host costs (latency_s,
// cpu_s, peak_rss_mb, setup_s). With -trace 1 the run repeats the
// workload with spans recorded around every call the harness makes,
// replays the workload's cells in-process through each module's public
// entry point, and reports the per-layer table instead. See README.md
// for the workloads, the metrics and the noise facts they were sized
// against.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runs with.
type env struct {
	bin     string // directory holding the built binaries
	work    string // the checkout's .bench_build directory
	runDir  string // fresh directory for this run's state, removed after
	outDir  string // kept outputs: traced timelines and layer tables
	seed    int64
	seconds int
	log     io.Writer
	start   time.Time
}

// logf narrates a phase on stderr with the time since the run began.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: %6.1fs "+format+"\n", append([]any{time.Since(e.start).Seconds()}, args...)...)
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int
	// gateErrs are correctness failures; any one makes the run incorrect.
	gateErrs []string
	metrics  map[string]metric
	// counts are simulated-behaviour counts that must repeat exactly on
	// every run of the same code with the same seed.
	counts map[string]int64
	// countsKey names the record counts are compared against; runs that
	// share a key must agree.
	countsKey string
}

func (o *outcome) gate(err error) {
	if err != nil {
		o.gateErrs = append(o.gateErrs, err.Error())
	}
}

// set records a metric. A figure with no samples behind it (a median of
// nothing, after every operation failed) is reported as 0: the failures
// are already counted, and JSON has no NaN.
func (o *outcome) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

type workload struct {
	name string
	// run measures the workload untraced and reports end-to-end metrics.
	run func(ctx context.Context, e *env) *outcome
	// traced repeats the workload with spans and reports per-layer metrics.
	traced func(ctx context.Context, e *env) *outcome
}

var workloads = []workload{
	{name: "fig5-cli", run: runFig5, traced: tracedFig5},
	{name: "fleet-lowet", run: runFleet, traced: tracedFleet},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bin     = fs.String("bin", "", "directory holding deesim, deesimd and deesim-coord")
		work    = fs.String("work", "", "scratch directory inside the checkout (state, records, outputs)")
		name    = fs.String("workload", "", "workload to run: fig5-cli or fleet-lowet")
		seed    = fs.Int64("seed", 1, "run seed; both workloads' inputs are the paper's fixed matrices, so it only names the traced outputs")
		seconds = fs.Int("seconds", 30, "measured-phase length; each workload measures one indivisible sweep, so it is checked but not used")
		traced  = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *bin == "" || *work == "":
		fmt.Fprintln(stderr, "perfbench: -bin and -work are required (run through run.sh)")
		return 2
	case *seconds < 1 || (*traced != 0 && *traced != 1):
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	e := &env{bin: *bin, work: *work, seed: *seed, seconds: *seconds, log: stderr, start: time.Now()}
	e.outDir = filepath.Join(e.work, "out")
	e.runDir = filepath.Join(e.work, "runs", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.runDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	var o *outcome
	if *traced == 1 {
		o = w.traced(ctx, e)
	} else {
		o = w.run(ctx, e)
	}
	if o.countsKey != "" {
		o.gate(checkCounts(filepath.Join(e.work, "counts"), o.countsKey, o.counts))
	}
	for _, msg := range o.gateErrs {
		fmt.Fprintln(stderr, "perfbench: GATE FAILED:", msg)
	}
	if o.attempted < 1 {
		o.attempted = 1
		o.failed = 1
	}
	rep := report{
		Correct:   len(o.gateErrs) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	}
	if rep.Metrics == nil {
		rep.Metrics = map[string]metric{}
	}
	printMetrics(stderr, rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printMetrics writes a sorted human-readable copy of the metrics to w.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "perfbench: %-32s %14s %s\n", n, strconv.FormatFloat(ms[n].Value, 'g', 6, 64), ms[n].Unit)
	}
}

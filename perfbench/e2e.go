package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"deesim/internal/client"
	"deesim/internal/experiments"
	"deesim/internal/server"
	"deesim/internal/superv"
)

// setupReps is how many times each run sets its system up; setup_s is
// the median, so one slow exec or page-cache miss does not move it.
const setupReps = 21

// fig5Cells is the paper's Figure-5 matrix: 8 inputs x 7 models x 6 ETs.
const fig5Cells = 336

// fig5Golden is the checked-in Figure-5 golden the CLI is gated on.
const fig5Golden = "results/golden/figure5.json"

// e2eStats is the end-to-end figures of one measured phase: one sweep,
// whose wall time is what reaches the user as latency_s.
type e2eStats struct {
	latency, cpu, rss, setup float64
	attempted, failed        int
	resultBytes              int // size of the result the user receives
}

func (s e2eStats) report(o *outcome) {
	o.attempted, o.failed = s.attempted, s.failed
	o.set("latency_s", s.latency, "s")
	o.set("cpu_s", s.cpu, "s")
	o.set("peak_rss_mb", s.rss, "MiB")
	o.set("setup_s", s.setup, "s")
}

// ---- fig5-cli -------------------------------------------------------

// fig5Phase runs `deesim -csv -golden results/golden/figure5.json` once:
// the paper's full Figure-5 sweep, traces run to completion. setup_s is
// the median exec-to-exit of `deesim -version`, so work moved into
// package init shows. The golden comparison is the correctness gate.
func fig5Phase(ctx context.Context, e *env, tr *tracer, o *outcome) (e2eStats, promSnapshot) {
	st := e2eStats{attempted: fig5Cells, failed: fig5Cells}
	deesim := filepath.Join(e.bin, "deesim")
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := timeExec(ctx, deesim, "-version")
		if err != nil {
			o.gate(err)
			return st, nil
		}
		setups = append(setups, d.Seconds())
	}
	st.setup = median(setups)
	golden, err := filepath.Abs(fig5Golden)
	if err != nil {
		o.gate(err)
		return st, nil
	}
	dir, err := os.MkdirTemp(e.runDir, "fig5-")
	if err != nil {
		o.gate(err)
		return st, nil
	}
	mpath := filepath.Join(dir, "metrics.txt")
	sp := tr.begin("deesim", "deesim -csv -golden", -1)
	start := time.Now()
	p, err := startProc("deesim", deesim, []string{"-csv", "-golden", golden, "-metrics-out", mpath}, nil, dir)
	if err != nil {
		o.gate(err)
		return st, nil
	}
	err = p.wait(ctx)
	st.latency = time.Since(start).Seconds()
	e.logf("deesim sweep took %.2fs", st.latency)
	tr.end(sp)
	st.cpu, st.rss = p.cpuSeconds(), p.peakRSSMiB()
	if err != nil {
		o.gate(fmt.Errorf("golden gate: %w", err))
		return st, nil
	}
	if fi, err := os.Stat(p.out.Name()); err == nil {
		st.resultBytes = int(fi.Size())
	}
	snap, err := readPromFile(mpath)
	if err != nil {
		o.gate(err)
		return st, nil
	}
	if runs := snap.sum("deesim_sim_runs_total"); runs != fig5Cells {
		o.gate(fmt.Errorf("deesim ran %v simulations, want %d", runs, fig5Cells))
		return st, snap
	}
	st.failed = 0
	return st, snap
}

func runFig5(ctx context.Context, e *env) *outcome {
	o := &outcome{countsKey: "fig5-cli"}
	st, snap := fig5Phase(ctx, e, nil, o)
	st.report(o)
	if snap != nil {
		o.counts = map[string]int64{
			"sim_runs":   int64(snap.sum("deesim_sim_runs_total")),
			"sim_cycles": int64(snap.sum("deesim_sim_cycles_total")),
			"sim_issued": int64(snap.sum("deesim_sim_instructions_issued_total")),
		}
	}
	return o
}

// ---- fleet-lowet ----------------------------------------------------

// fleetSpec is the fleet workload's one distributed sweep: the five
// paper workloads x seven models x ET {8,16,32,64} = 224 cells, run to
// completion.
var fleetSpec = server.Spec{Resources: []int{8, 16, 32, 64}}

// fleetPoll is the fleet's fixed status-poll interval: one 224-cell
// sweep takes tens of seconds, so 10 ms quantization is under 0.1% of
// it, and the polls cost the coordinator little CPU.
const fleetPoll = 10 * time.Millisecond

// fleet is a running coordinator plus two workers.
type fleet struct {
	coord      *proc
	workers    []*proc
	coordURL   string
	workerURLs []string
}

func (f *fleet) procs() []*proc { return append([]*proc{f.coord}, f.workers...) }

func (f *fleet) stop() {
	for _, p := range f.workers {
		p.stop(10 * time.Second)
	}
	f.coord.stop(10 * time.Second)
}

// startFleet launches deesim-coord and two deesimd -coord workers on
// loopback and returns once both workers are registered ready. All
// three run at GOMAXPROCS=1 and each worker has one cell slot, so the
// fleet runs as many cells at once as the 2-vCPU reference host has
// CPUs.
func startFleet(ctx context.Context, e *env, dir string, hc *http.Client) (*fleet, error) {
	one := []string{"GOMAXPROCS=1"}
	coord, err := startProc("coord", filepath.Join(e.bin, "deesim-coord"), []string{
		"-addr", "127.0.0.1:0", "-addr-file", filepath.Join(dir, "coord.addr"),
		"-state", filepath.Join(dir, "coord.state"),
	}, one, dir)
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord}
	if f.coordURL, err = waitAddr(ctx, coord, filepath.Join(dir, "coord.addr")); err != nil {
		f.stop()
		return nil, err
	}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("worker%d", i)
		w, err := startProc(name, filepath.Join(e.bin, "deesimd"), []string{
			"-addr", "127.0.0.1:0", "-addr-file", filepath.Join(dir, name+".addr"),
			"-state", filepath.Join(dir, name+".state"), "-coord", f.coordURL,
			"-cell-jobs", "1", "-cell-slots", "1",
		}, one, dir)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	for i, w := range f.workers {
		u, err := waitAddr(ctx, w, filepath.Join(dir, fmt.Sprintf("worker%d.addr", i+1)))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workerURLs = append(f.workerURLs, u)
	}
	err = waitOK(ctx, hc, f.coordURL+"/v1/workers", func(body []byte) bool {
		var ws []struct {
			State string `json:"state"`
		}
		if json.Unmarshal(body, &ws) != nil || len(ws) != 2 {
			return false
		}
		for _, w := range ws {
			if w.State != "ready" {
				return false
			}
		}
		return true
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// fleetRun is what one fleet sweep leaves behind for the traced run.
type fleetRun struct {
	fleet          *fleet
	body           []byte // the merged result
	coordSnap      promSnapshot
	workerSnaps    []promSnapshot
	submit, result time.Duration
	polls          int
}

// fleetPhase sets a fleet up setupReps times (setup_s is the median
// launch-to-both-workers-ready) and runs the 224-cell sweep on the last
// one. The fleet is left running for the traced run's RPC probe; the
// caller stops it and gates the result with finishFleet.
func fleetPhase(ctx context.Context, e *env, tr *tracer, o *outcome) (e2eStats, *fleetRun) {
	cells := fleetSpec.CellsTotal()
	st := e2eStats{attempted: cells, failed: cells}
	hc := &http.Client{Timeout: 10 * time.Second}
	var setups []float64
	var f *fleet
	for i := 0; i < setupReps; i++ {
		dir, err := os.MkdirTemp(e.runDir, "fleet-")
		if err != nil {
			o.gate(err)
			return st, nil
		}
		start := time.Now()
		f, err = startFleet(ctx, e, dir, hc)
		if err != nil {
			o.gate(fmt.Errorf("fleet setup: %w", err))
			return st, nil
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			f.stop()
		}
	}
	st.setup = median(setups)
	e.logf("fleet set up %d times, median %.1f ms", setupReps, st.setup*1000)
	run := &fleetRun{fleet: f}

	c := newClient(f.coordURL)
	sweep := tr.begin("client", "fleet sweep", -1)
	start := time.Now()
	got, err := submitAndWait(ctx, c, fleetSpec, fleetPoll, tr, sweep, &run.submit, &run.result, &run.polls)
	st.latency = time.Since(start).Seconds()
	e.logf("fleet sweep took %.2fs", st.latency)
	tr.end(sweep)
	run.body, st.resultBytes = got, len(got)
	o.gate(err)
	if run.coordSnap, err = scrape(hc, f.coordURL); err != nil {
		o.gate(err)
	}
	for _, u := range f.workerURLs {
		s, err := scrape(hc, u)
		if err != nil {
			o.gate(err)
		}
		run.workerSnaps = append(run.workerSnaps, s)
	}
	return st, run
}

// finishFleet stops the fleet, fills in its rusage figures, and gates
// the merged result on byte equality with a single-node
// RunMatrixContext of the same spec. The reference is computed only
// now: Linux carries a parent's peak RSS into the children it starts,
// so a harness that had already run the 224 cells in-process would
// inflate every fleet process's peak_rss_mb.
func finishFleet(ctx context.Context, e *env, st *e2eStats, run *fleetRun, o *outcome) {
	run.fleet.stop()
	for _, p := range run.fleet.procs() {
		st.cpu += p.cpuSeconds()
		st.rss += p.peakRSSMiB()
		e.logf("%s cpu %.2fs, peak rss %.1f MiB", p.name, p.cpuSeconds(), p.peakRSSMiB())
	}
	if run.body == nil {
		return
	}
	want, err := cachedReference(ctx, e, fleetSpec)
	if err != nil {
		o.gate(err)
		return
	}
	if !sameResult(run.body, want) {
		o.gate(fmt.Errorf("fleet result (%d bytes) differs from the single-node result (%d bytes)", len(run.body), len(want)))
		return
	}
	st.failed = 0
}

func runFleet(ctx context.Context, e *env) *outcome {
	o := &outcome{countsKey: "fleet-lowet"}
	st, run := fleetPhase(ctx, e, nil, o)
	if run != nil {
		finishFleet(ctx, e, &st, run, o)
		// Leases, speculations and duplicates depend on timing, so the
		// traced run reports them instead of asserting them here.
		o.counts = map[string]int64{"cells_done": int64(run.coordSnap.sum("deesim_coord_cells_done_total"))}
	}
	st.report(o)
	return o
}

// ---- shared ---------------------------------------------------------

// sameResult reports whether two result documents are byte-identical,
// ignoring only surrounding whitespace (result.json ends in a newline
// the JSON decoder does not keep).
func sameResult(got, want []byte) bool {
	return len(want) > 0 && bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want))
}

// newClient is the repo's own client with retries off: a shed (429) or
// unavailable (503) answer counts as a failed operation, not a retry.
func newClient(base string) *client.Client {
	c := client.New(base)
	c.Retry = superv.RetryPolicy{Attempts: 1}
	return c
}

// submitAndWait submits sp, polls its status every poll until it is
// done, and fetches the result. Submit and Result are timed into sub
// and res; polls counts Status calls.
func submitAndWait(ctx context.Context, c *client.Client, sp server.Spec, poll time.Duration, tr *tracer, parent int,
	sub, res *time.Duration, polls *int) ([]byte, error) {
	s := tr.begin("client", "Submit", parent)
	t0 := time.Now()
	js, err := c.Submit(ctx, sp)
	*sub = time.Since(t0)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	for js.State != server.StateDone {
		if js.State == server.StateFailed {
			return nil, fmt.Errorf("job %s failed: %s", js.ID, js.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
		s := tr.begin("client", "Status", parent)
		js, err = c.Status(ctx, js.ID)
		tr.end(s)
		*polls++
		if err != nil {
			return nil, err
		}
	}
	s = tr.begin("client", "Result", parent)
	t0 = time.Now()
	raw, err := c.Result(ctx, js.ID)
	*res = time.Since(t0)
	tr.end(s)
	return raw, err
}

// reference computes the result bytes a single node returns for sp:
// RunMatrixContext with no memo and no journal, marshalled the way
// deesimd and deesim-coord write result.json.
func reference(ctx context.Context, sp server.Spec) ([]byte, error) {
	ws, cfg, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	results, err := experiments.RunMatrixContext(ctx, ws, cfg, experiments.MatrixConfig{Jobs: 2})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return json.MarshalIndent(results, "", "  ")
}

// cachedReference is reference, kept in the checkout's scratch
// directory: the same code computes the same bytes, so later runs of
// the checkout reuse the first run's computation.
func cachedReference(ctx context.Context, e *env, sp server.Spec) ([]byte, error) {
	key, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(key)
	path := filepath.Join(e.work, "ref", hex.EncodeToString(sum[:8])+".json")
	if b, err := os.ReadFile(path); err == nil {
		return b, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	b, err := reference(ctx, sp)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return b, os.WriteFile(path, b, 0o644)
}

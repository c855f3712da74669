package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"deesim/internal/experiments"
	"deesim/internal/server"
)

// layerReport is the per-layer table one traced run reports. Every
// workload reports every field; a zero means the layer is not on the
// workload's path (no coordinator or daemon in fig5-cli, no ET256 cell
// in fleet-lowet).
type layerReport struct {
	pass          passStats
	rt            runtimeCounters // delta across the in-process pass
	cellMs        []float64       // per-cell time on the workload's own cell path
	rebuildFrac   float64
	probes        probes
	submitMs      float64
	resultMs      float64
	pollsPerSweep float64
	rpcOverMs     float64
	fsyncsPerSwp  float64
	leasesPerCell float64
	speculations  float64
	usefulFrac    float64
	workerBusy    float64
	tracedWall    float64
	overheadFrac  float64
	accounted     float64
}

// tailCap is the highest percentile a tail figure is reported at; the
// sample count may lower it (see tailPercentile).
const tailCap = 95

func (l *layerReport) report(o *outcome) {
	ps := &l.pass
	o.set("bench.build_ms", ms(ps.build), "ms")
	o.set("trace.record_ms", ms(ps.record), "ms")
	o.set("ilpsim.prepare_ms", ms(ps.prepare), "ms")
	o.set("ilpsim.run_s", ps.run.Seconds(), "s")
	o.set("ilpsim.run_et256_s", ps.runET256.Seconds(), "s")
	o.set("ilpsim.run_max_ms", ms(ps.runMax), "ms")
	nsPerCycle := 0.0
	if ps.cycles > 0 {
		nsPerCycle = float64(ps.run.Nanoseconds()) / float64(ps.cycles)
	}
	o.set("ilpsim.ns_per_cycle", nsPerCycle, "ns")
	o.set("ilpsim.cycles", float64(ps.cycles), "count")
	o.set("ilpsim.alloc_mb", l.rt.allocBytes/(1<<20), "MiB")
	gc := 0.0
	if l.rt.totalCPU > 0 {
		gc = l.rt.gcCPU / l.rt.totalCPU
	}
	o.set("runtime.gc_cpu_frac", gc, "frac")
	p50, tail, pct := percentiles(l.cellMs)
	o.set("experiments.cell_p50_ms", p50, "ms")
	o.set("experiments.cell_tail_ms", tail, "ms")
	o.set("experiments.cell_tail_pct", pct, "pct")
	o.set("experiments.rebuild_frac", l.rebuildFrac, "frac")
	o.set("experiments.matrix_hit_ms", l.probes.matrixHitMs, "ms")
	o.set("server.submit_ms", l.submitMs, "ms")
	o.set("server.result_ms", l.resultMs, "ms")
	o.set("server.polls_per_sweep", l.pollsPerSweep, "count")
	o.set("server.cell_rpc_overhead_ms", l.rpcOverMs, "ms")
	o.set("superv.append_ms", l.probes.appendMs, "ms")
	o.set("superv.fsyncs_per_sweep", l.fsyncsPerSwp, "count")
	o.set("durable.write_ms", l.probes.writeMs, "ms")
	o.set("memo.hit_us", l.probes.memoHitUs, "us")
	o.set("memo.miss_ms", l.probes.memoMissMs, "ms")
	o.set("coord.leases_per_cell", l.leasesPerCell, "ratio")
	o.set("coord.speculations", l.speculations, "count")
	o.set("coord.useful_frac", l.usefulFrac, "frac")
	o.set("coord.worker_busy_frac", l.workerBusy, "frac")
	o.set("traced.wall_s", l.tracedWall, "s")
	o.set("tracing.overhead_frac", l.overheadFrac, "frac")
	o.set("layers.accounted_frac", l.accounted, "frac")
}

// percentiles returns the median and the tail percentile of xs, with
// the percentile used. Both are 0 when xs is too small for the median
// to have minBeyond samples above it.
func percentiles(xs []float64) (p50, tail, pct float64) {
	pct, ok := tailPercentile(len(xs), tailCap)
	if !ok {
		return 0, 0, 0
	}
	return percentile(xs, 50), percentile(xs, pct), pct
}

// finishTraced runs the service-layer probes, computes the tracing
// overhead, writes the timeline and layer table, and reports.
func finishTraced(ctx context.Context, e *env, name string, tr *tracer, l *layerReport, resultBytes int, o *outcome) {
	dir, err := os.MkdirTemp(e.runDir, "probes-")
	if err == nil {
		l.probes, err = runProbes(ctx, tr, dir, resultBytes)
	}
	o.gate(err)
	spans := len(tr.snapshot())
	if l.tracedWall > 0 {
		l.overheadFrac = spanCost().Seconds() * float64(spans) / l.tracedWall
	}
	o.gate(writeTraceOutputs(e, name, tr, func(f *os.File) {
		fmt.Fprintf(f, "\nspans recorded: %d; traced end-to-end wall %.3f s; tracing overhead %.2g of it\n",
			spans, l.tracedWall, l.overheadFrac)
	}))
	l.report(o)
}

// passInProcess runs sharedPass with the runtime counters sampled
// around it.
func passInProcess(ctx context.Context, tr *tracer, inputs []inputCells, workers int, l *layerReport) error {
	before := readRuntime()
	err := sharedPass(ctx, tr, inputs, workers, &l.pass)
	after := readRuntime()
	l.rt = runtimeCounters{
		allocBytes: after.allocBytes - before.allocBytes,
		gcCPU:      after.gcCPU - before.gcCPU,
		totalCPU:   after.totalCPU - before.totalCPU,
	}
	return err
}

// buildFrac is the share of a shared pass spent recording traces and
// preparing Sims rather than running them.
func buildFrac(ps *passStats) float64 {
	rebuild := ps.record + ps.prepare
	if total := ps.build + rebuild + ps.run; total > 0 {
		return rebuild.Seconds() / total.Seconds()
	}
	return 0
}

// tracedFig5 repeats the CLI sweep with a span around the process, then
// replays all 336 cells in-process (two inputs at a time) through
// bench, trace and ilpsim. The replay's simulated cycles must equal the
// CLI's deesim_sim_cycles_total.
func tracedFig5(ctx context.Context, e *env) *outcome {
	o := &outcome{countsKey: "fig5-cli-traced"}
	tr := newTracer()
	st, snap := fig5Phase(ctx, e, tr, o)
	o.attempted, o.failed = st.attempted, st.failed
	l := &layerReport{tracedWall: st.latency}
	inputs, _, _, err := specInputs(server.Spec{})
	if err == nil {
		err = passInProcess(ctx, tr, inputs, 2, l)
	}
	o.gate(err)
	l.cellMs = l.pass.runMs
	l.rebuildFrac = buildFrac(&l.pass)
	if st.cpu > 0 {
		l.accounted = (l.pass.build + l.pass.record + l.pass.prepare + l.pass.run).Seconds() / st.cpu
	}
	if snap != nil {
		if cli := int64(snap.sum("deesim_sim_cycles_total")); cli != l.pass.cycles {
			o.gate(fmt.Errorf("in-process replay simulated %d cycles, deesim %d", l.pass.cycles, cli))
		}
	}
	o.counts = map[string]int64{"ilpsim_cycles": l.pass.cycles}
	finishTraced(ctx, e, "fig5-cli", tr, l, st.resultBytes, o)
	return o
}

// tracedFleet repeats the fleet sweep with spans around the client
// calls, probes the cell RPC against a live worker, then replays the
// 224 cells in-process twice: shared per input (the single-node path)
// and through experiments.RunCell per cell (the worker path).
func tracedFleet(ctx context.Context, e *env) *outcome {
	o := &outcome{countsKey: "fleet-lowet-traced"}
	tr := newTracer()
	st, run := fleetPhase(ctx, e, tr, o)
	l := &layerReport{tracedWall: st.latency}
	inputs, ws, cfg, err := specInputs(fleetSpec)
	if err != nil {
		o.gate(err)
		return o
	}
	if run != nil {
		l.rpcOverMs, err = rpcOverhead(ctx, tr, &http.Client{Timeout: 10 * time.Second}, run.fleet.workerURLs[0])
		o.gate(err)
		finishFleet(ctx, e, &st, run, o)
		cells := float64(fleetSpec.CellsTotal())
		cs := run.coordSnap
		l.submitMs, l.resultMs, l.pollsPerSweep = ms(run.submit), ms(run.result), float64(run.polls)
		l.fsyncsPerSwp = cs.sum("deesim_coord_journal_fsyncs_total") + cs.sum("deesim_superv_journal_fsyncs_total")
		l.leasesPerCell = cs.sum("deesim_coord_leases_granted_total") / cells
		l.speculations = cs.sum("deesim_coord_straggler_speculations_total")
		var served, busy float64
		for _, s := range run.workerSnaps {
			served += s.sum("deesim_server_cells_served_total")
			busy += s.sum("deesim_cell_duration_seconds_sum")
		}
		if served > 0 {
			l.usefulFrac = cells / served
		}
		if st.latency > 0 {
			l.workerBusy = busy / (2 * st.latency)
		}
	}
	o.attempted, o.failed = st.attempted, st.failed
	o.gate(passInProcess(ctx, tr, inputs, 2, l))
	tasks := experiments.MatrixTasks(ws, cfg)
	cellDur := make([]time.Duration, len(tasks))
	err = forEach(len(tasks), 2, func(i int) error {
		s := tr.begin("experiments", "RunCell "+tasks[i].Key(), -1)
		_, err := experiments.RunCell(ctx, ws, cfg, tasks[i])
		cellDur[i] = tr.end(s)
		return err
	})
	o.gate(err)
	var total, rebuild time.Duration
	for i, d := range cellDur {
		l.cellMs = append(l.cellMs, ms(d))
		total += d
		rebuild += l.pass.rebuild[tasks[i].Workload+"/"+tasks[i].Input]
	}
	if total > 0 {
		l.rebuildFrac = rebuild.Seconds() / total.Seconds()
	}
	if st.cpu > 0 {
		l.accounted = total.Seconds() / st.cpu
	}
	o.counts = map[string]int64{"ilpsim_cycles": l.pass.cycles}
	finishTraced(ctx, e, "fleet-lowet", tr, l, st.resultBytes, o)
	return o
}

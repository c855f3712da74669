package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"deesim/internal/bench"
	"deesim/internal/durable"
	"deesim/internal/experiments"
	"deesim/internal/ilpsim"
	"deesim/internal/isa"
	"deesim/internal/memo"
	"deesim/internal/predictor"
	"deesim/internal/server"
	"deesim/internal/superv"
	"deesim/internal/trace"
)

// inputCells is one workload input and the cells a workload runs on it.
type inputCells struct {
	name  string // "workload/input"
	build func(scale int) (*isa.Program, error)
	cfg   experiments.Config // effective settings, defaults filled in
	cells []experiments.MatrixTask
}

// effective fills in the defaults experiments applies to an unset
// Config, so an in-process replay calls each layer with the values the
// binaries use.
func effective(cfg experiments.Config) experiments.Config {
	if len(cfg.Resources) == 0 {
		cfg.Resources = experiments.PaperResources
	}
	if len(cfg.Models) == 0 {
		cfg.Models = ilpsim.PaperModels
	}
	if cfg.Predictor == "" {
		cfg.Predictor = "2bit"
	}
	if cfg.Opts == (ilpsim.Options{}) {
		cfg.Opts = ilpsim.DefaultOptions()
	}
	return cfg
}

// specInputs expands a spec into its inputs and their cells, in the
// order RunMatrixContext queues them.
func specInputs(sp server.Spec) ([]inputCells, []bench.Workload, experiments.Config, error) {
	ws, cfg, err := sp.Resolve()
	if err != nil {
		return nil, nil, cfg, err
	}
	eff := effective(cfg)
	var out []inputCells
	for _, w := range ws {
		for _, in := range w.Inputs {
			ic := inputCells{name: w.Name + "/" + in.Name, build: in.Build, cfg: eff}
			for _, m := range eff.Models {
				for _, et := range eff.Resources {
					ic.cells = append(ic.cells, experiments.MatrixTask{Workload: w.Name, Input: in.Name, Model: m.String(), ET: et})
				}
			}
			out = append(out, ic)
		}
	}
	return out, ws, cfg, nil
}

// passStats accumulates what a layer pass measured.
type passStats struct {
	mu                          sync.Mutex
	build, record, prepare, run time.Duration
	runET256, runMax            time.Duration
	cycles                      int64
	runMs                       []float64                // Sim.RunContext per cell
	rebuild                     map[string]time.Duration // input -> record + prepare
}

// sharedPass replays inputs the way the CLI and a journaled sweep run
// them: per input one Input.Build, one trace.RecordContext and one
// ilpsim.NewContext, then Sim.RunContext for every cell on the shared
// prepared Sim. workers inputs run concurrently.
func sharedPass(ctx context.Context, tr *tracer, inputs []inputCells, workers int, ps *passStats) error {
	return forEach(len(inputs), workers, func(i int) error {
		in := inputs[i]
		root := tr.begin("experiments", "input "+in.name, -1)
		defer tr.end(root)
		sp := tr.begin("bench", "Input.Build "+in.name, root)
		prog, err := in.build(in.cfg.Scale)
		dBuild := tr.end(sp)
		if err != nil {
			return fmt.Errorf("build %s: %w", in.name, err)
		}
		sp = tr.begin("trace", "RecordContext "+in.name, root)
		t, err := trace.RecordContext(ctx, prog, in.cfg.MaxInstrs)
		dRecord := tr.end(sp)
		if err != nil {
			return err
		}
		pred, err := predictor.New(in.cfg.Predictor)
		if err != nil {
			return err
		}
		sp = tr.begin("ilpsim", "NewContext "+in.name, root)
		sim, err := ilpsim.NewContext(ctx, t, pred, in.cfg.Opts)
		dPrepare := tr.end(sp)
		if err != nil {
			return err
		}
		models := make(map[string]ilpsim.Model)
		for _, m := range in.cfg.Models {
			models[m.String()] = m
		}
		var runs []time.Duration
		var cycles int64
		var et256 time.Duration
		for _, c := range in.cells {
			sp := tr.begin("ilpsim", "RunContext "+c.Key(), root)
			res, err := sim.RunContext(ctx, models[c.Model], c.ET)
			d := tr.end(sp)
			if err != nil {
				return err
			}
			runs = append(runs, d)
			cycles += res.Cycles
			if c.ET == 256 {
				et256 += d
			}
		}
		ps.mu.Lock()
		defer ps.mu.Unlock()
		ps.build += dBuild
		ps.record += dRecord
		ps.prepare += dPrepare
		ps.runET256 += et256
		ps.cycles += cycles
		for _, d := range runs {
			ps.run += d
			ps.runMax = max(ps.runMax, d)
			ps.runMs = append(ps.runMs, ms(d))
		}
		if ps.rebuild == nil {
			ps.rebuild = make(map[string]time.Duration)
		}
		ps.rebuild[in.name] = dRecord + dPrepare
		return nil
	})
}

// forEach runs fn(0..n-1) on workers goroutines and returns the first
// error.
func forEach(n, workers int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// runtimeCounters samples the Go runtime's allocation and CPU-class
// counters, to attribute allocation and GC CPU to a layer pass.
type runtimeCounters struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// probes are per-call costs of the service layers, measured the same
// way in every workload's traced run.
type probes struct {
	appendMs, writeMs, memoHitUs, memoMissMs, matrixHitMs float64
}

// matrixProbeSpec is the small what-if sweep the matrix-hit probe
// merges: one workload, two models, two ETs, at a short cap.
var matrixProbeSpec = server.Spec{Workloads: []string{"compress"}, Models: []string{"DEE-CD-MF", "SP"}, Resources: []int{16, 64}, MaxInstrs: 20000}

// runProbes times superv.Journal.Append (with fsync), durable
// .WriteFileAtomic of a resultBytes-sized file, memo.Memo.Do on a
// stored key and on a new key storing a cell-sized value, and
// experiments.RunMatrixContext of matrixProbeSpec with every cell
// already memoized. All files live in dir, on the filesystem the
// daemons write their state to.
func runProbes(ctx context.Context, tr *tracer, dir string, resultBytes int) (probes, error) {
	var p probes
	cell := []byte(`{"workload":"compress","input":"in","model":"DEE-CD-MF","et":64,"insts":265000,"accuracy":0.9,"oracle":40.1,"speedup":9.5,"rootrate":0.7}`)
	root := tr.begin("perfbench", "layer probes", -1)
	defer tr.end(root)

	j, err := superv.Create(filepath.Join(dir, "probe.journal"), "perfbench", map[string]string{"probe": "append"})
	if err != nil {
		return p, err
	}
	var xs []float64
	for i := 0; i < 64; i++ {
		sp := tr.begin("superv", "Journal.Append", root)
		err := j.Append(superv.Record{Kind: "done", Key: fmt.Sprintf("probe|%d", i), Result: cell})
		xs = append(xs, ms(tr.end(sp)))
		if err != nil {
			j.Close()
			return p, err
		}
	}
	if err := j.Close(); err != nil {
		return p, err
	}
	p.appendMs = median(xs)

	data := make([]byte, max(resultBytes, 1))
	for i := range data {
		data[i] = byte('a' + i%26)
	}
	xs = xs[:0]
	for i := 0; i < 32; i++ {
		sp := tr.begin("durable", "WriteFileAtomic", root)
		err := durable.WriteFileAtomic(durable.OS, filepath.Join(dir, fmt.Sprintf("result-%d.json", i%4)), data)
		xs = append(xs, ms(tr.end(sp)))
		if err != nil {
			return p, err
		}
	}
	p.writeMs = median(xs)

	m, err := memo.New(memo.Config{Dir: filepath.Join(dir, "probe-memo")})
	if err != nil {
		return p, err
	}
	store := func(ctx context.Context) ([]byte, error) { return cell, nil }
	xs = xs[:0]
	for i := 0; i < 32; i++ {
		sp := tr.begin("memo", "Do miss", root)
		_, err := m.Do(ctx, fmt.Sprintf("probe-key-%d", i), store)
		xs = append(xs, ms(tr.end(sp)))
		if err != nil {
			return p, err
		}
	}
	p.memoMissMs = median(xs)
	xs = xs[:0]
	for i := 0; i < 256; i++ {
		sp := tr.begin("memo", "Do hit", root)
		_, err := m.Do(ctx, fmt.Sprintf("probe-key-%d", i%32), store)
		xs = append(xs, ms(tr.end(sp))*1000)
		if err != nil {
			return p, err
		}
	}
	p.memoHitUs = median(xs)

	ws, cfg, err := matrixProbeSpec.Resolve()
	if err != nil {
		return p, err
	}
	mm, err := memo.New(memo.Config{Dir: filepath.Join(dir, "probe-matrix-memo")})
	if err != nil {
		return p, err
	}
	mcfg := experiments.MatrixConfig{Jobs: 2, Memo: mm}
	if _, err := experiments.RunMatrixContext(ctx, ws, cfg, mcfg); err != nil { // fills the memo
		return p, err
	}
	xs = xs[:0]
	for i := 0; i < 16; i++ {
		sp := tr.begin("experiments", "RunMatrixContext all-hit", root)
		_, err := experiments.RunMatrixContext(ctx, ws, cfg, mcfg)
		xs = append(xs, ms(tr.end(sp)))
		if err != nil {
			return p, err
		}
	}
	p.matrixHitMs = median(xs)
	return p, nil
}

// rpcProbeSpec holds the 21 cells the RPC probe sends: short ones, so
// the round trip is not lost in the simulation's run-to-run spread.
var rpcProbeSpec = server.Spec{Workloads: []string{"cc1"}, Resources: []int{8, 16, 32}, MaxInstrs: 2000}

// rpcOverhead sends each of rpcProbeSpec's cells to a live deesimd's
// POST /v1/cells (client.RunCell) and returns the mean round trip minus
// the mean time the daemon itself spent in the cell, read from its
// deesim_cell_duration_seconds histogram: what the RPC adds to
// experiments.RunCell, with both sides timed in the process that ran
// them. Each cell is also run in-process, to check that the RPC returns
// the same bytes.
func rpcOverhead(ctx context.Context, tr *tracer, hc *http.Client, base string) (float64, error) {
	sp := rpcProbeSpec
	ws, cfg, err := sp.Resolve()
	if err != nil {
		return 0, err
	}
	tasks := experiments.MatrixTasks(ws, cfg)
	before, err := scrape(hc, base)
	if err != nil {
		return 0, err
	}
	c := newClient(base)
	root := tr.begin("perfbench", "cell RPC probe", -1)
	defer tr.end(root)
	var rpc time.Duration
	for _, t := range tasks {
		s := tr.begin("client", "RunCell "+t.Key(), root)
		raw, err := c.RunCell(ctx, server.CellRequest{Spec: sp, Task: t})
		rpc += tr.end(s)
		if err != nil {
			return 0, fmt.Errorf("cell RPC %s: %w", t.Key(), err)
		}
		cell, err := experiments.RunCell(ctx, ws, cfg, t)
		if err != nil {
			return 0, err
		}
		want, err := json.Marshal(cell)
		if err != nil {
			return 0, err
		}
		var got bytes.Buffer
		if err := json.Compact(&got, raw); err != nil {
			return 0, fmt.Errorf("cell RPC %s: %w", t.Key(), err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			return 0, fmt.Errorf("cell RPC %s returned %s, in-process %s", t.Key(), got.Bytes(), want)
		}
	}
	after, err := scrape(hc, base)
	if err != nil {
		return 0, err
	}
	const h = "deesim_cell_duration_seconds"
	n := after.sum(h+"_count") - before.sum(h+"_count")
	if int(n) != len(tasks) {
		return 0, fmt.Errorf("daemon ran %v cells during the RPC probe, want %d", n, len(tasks))
	}
	inCell := (after.sum(h+"_sum") - before.sum(h+"_sum")) / n
	return ms(rpc)/n - inCell*1000, nil
}

// spanCost measures what one begin/end pair costs on this host, so the
// traced run can state its own overhead.
func spanCost() time.Duration {
	t := newTracer()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", "probe", -1))
	}
	return time.Since(start) / n
}

// writeTraceOutputs writes the Perfetto timeline and the per-layer
// table of a traced run into outDir.
func writeTraceOutputs(e *env, workload string, tr *tracer, extra func(f *os.File)) error {
	spans := tr.snapshot()
	stem := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d", workload, e.seed))
	if err := writeTimeline(stem+".timeline.json", spans); err != nil {
		return err
	}
	f, err := os.Create(stem + ".layers.txt")
	if err != nil {
		return err
	}
	writeLayerTable(f, fmt.Sprintf("%s seed %d: per-layer self time (span minus child spans)", workload, e.seed), layerTable(spans))
	if extra != nil {
		extra(f)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(e.log, "perfbench: wrote %s.timeline.json and %s.layers.txt\n", stem, stem)
	return nil
}

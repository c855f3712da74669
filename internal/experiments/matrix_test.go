package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"deesim/internal/bench"
	"deesim/internal/ilpsim"
	"deesim/internal/predictor"
	"deesim/internal/runx"
	"deesim/internal/stats"
	"deesim/internal/superv"
	"deesim/internal/trace"
)

// matrixTestConfig keeps matrix sweeps fast: two workloads (one with
// espresso's four inputs to exercise multi-input merging), two models,
// two resource levels, short traces.
func matrixTestConfig() Config {
	return Config{
		MaxInstrs: 10_000,
		Resources: []int{8, 64},
		Models:    []ilpsim.Model{ilpsim.ModelSP, ilpsim.ModelDEECDMF},
	}
}

func matrixTestWorkloads(t *testing.T) []bench.Workload {
	t.Helper()
	var ws []bench.Workload
	for _, name := range []string{"xlisp", "espresso"} {
		w, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// renderAll is the aggregate-table byte stream the acceptance criterion
// compares.
func renderAll(rs []*WorkloadResult, cfg Config) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(Render(r, cfg))
		b.WriteByte('\n')
	}
	return b.String()
}

// serialReference is a deliberately naive, test-only sweep: each input
// is recorded, prepared and run serially through trace, ilpsim and
// stats.HarmonicMean directly, sharing no harness code with
// RunMatrixContext, so the engine is checked against an independent
// computation rather than against itself.
func serialReference(t *testing.T, ws []bench.Workload, cfg Config) []*WorkloadResult {
	t.Helper()
	cfg = cfg.withDefaults()
	hmean := func(xs []float64) float64 {
		v, err := stats.HarmonicMean(xs)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// mean folds per-part results into one: arithmetic-mean accuracy,
	// harmonic-mean oracle and speedups (the paper's treatment).
	mean := func(name string, accs, oracles []float64, speedups []map[string]map[int]float64) *WorkloadResult {
		r := &WorkloadResult{Workload: name, Oracle: hmean(oracles), Speedup: map[string]map[int]float64{}}
		for _, a := range accs {
			r.Accuracy += a
		}
		r.Accuracy /= float64(len(accs))
		for _, m := range cfg.Models {
			r.Speedup[m.String()] = map[int]float64{}
			for _, et := range cfg.Resources {
				var xs []float64
				for _, sp := range speedups {
					xs = append(xs, sp[m.String()][et])
				}
				r.Speedup[m.String()][et] = hmean(xs)
			}
		}
		return r
	}
	var out []*WorkloadResult
	var accs, oracles []float64
	var speedups []map[string]map[int]float64
	for _, w := range ws {
		var inputs []*InputResult
		var inAccs, inOracles []float64
		var inSpeedups []map[string]map[int]float64
		for _, in := range w.Inputs {
			p, err := in.Build(cfg.Scale)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Record(p, cfg.MaxInstrs)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := predictor.New(cfg.Predictor)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := ilpsim.New(tr, pred, cfg.Opts)
			if err != nil {
				t.Fatal(err)
			}
			ir := &InputResult{
				Input: w.Name + "/" + in.Name, Insts: tr.Len(),
				Accuracy: sim.Accuracy(), Oracle: sim.Oracle().Speedup,
				Speedup: map[string]map[int]float64{}, RootRate: map[string]map[int]float64{},
			}
			for _, m := range cfg.Models {
				ir.Speedup[m.String()], ir.RootRate[m.String()] = map[int]float64{}, map[int]float64{}
				for _, et := range cfg.Resources {
					var r ilpsim.Result
					if et == 0 {
						r, err = sim.RunUnlimited(m)
					} else {
						r, err = sim.Run(m, et)
					}
					if err != nil {
						t.Fatal(err)
					}
					ir.Speedup[m.String()][et], ir.RootRate[m.String()][et] = r.Speedup, r.RootResolutionRate()
				}
			}
			inputs = append(inputs, ir)
			inAccs, inOracles = append(inAccs, ir.Accuracy), append(inOracles, ir.Oracle)
			inSpeedups = append(inSpeedups, ir.Speedup)
		}
		wr := mean(w.Name, inAccs, inOracles, inSpeedups)
		wr.Inputs = inputs
		out = append(out, wr)
		accs, oracles = append(accs, wr.Accuracy), append(oracles, wr.Oracle)
		speedups = append(speedups, wr.Speedup)
	}
	if len(out) > 1 {
		out = append(out, mean("harmonic-mean", accs, oracles, speedups))
	}
	return out
}

// TestMatrixMatchesSerialReference: the supervised matrix decomposition
// must reproduce the serial reference's aggregate tables byte for byte.
func TestMatrixMatchesSerialReference(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	direct := serialReference(t, ws, cfg)
	matrix, err := RunMatrixContext(context.Background(), ws, cfg, MatrixConfig{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderAll(matrix, cfg), renderAll(direct, cfg); got != want {
		t.Errorf("matrix tables differ from serial reference:\n--- matrix ---\n%s\n--- reference ---\n%s", got, want)
	}
	// Root-resolution statistics must survive the cell merge too.
	for _, r := range matrix {
		if r.Workload == "harmonic-mean" {
			continue
		}
		for _, in := range r.Inputs {
			for _, m := range cfg.Models {
				for _, et := range cfg.Resources {
					if _, ok := in.RootRate[m.String()][et]; !ok {
						t.Errorf("%s %v ET=%d: RootRate lost in merge", in.Input, m, et)
					}
				}
			}
		}
	}
}

// TestMatrixReleasesInputAfterLastCell: a sweep's table drops an
// input as soon as the next input is acquired, not when the sweep ends
// — holding every input pins every trace at once and makes a full
// sweep's peak memory the sum over inputs. With one worker cells run in
// task order, so after every cell the table holds exactly that cell's
// input, and each input is built exactly once.
func TestMatrixReleasesInputAfterLastCell(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	var tab Inputs
	var held []string // hooks are serialized by the supervisor
	mcfg := MatrixConfig{Jobs: 1}
	mcfg.testCellHook = func(key string) {
		tab.mu.Lock()
		defer tab.mu.Unlock()
		var names []string
		for k, e := range tab.entries {
			names = append(names, k.workload+"/"+k.input)
			if e.refs != 0 {
				t.Errorf("%s: %s still held by %d cells after its cell merged", key, e.name, e.refs)
			}
		}
		held = append(held, key+" holds "+strings.Join(names, ","))
	}
	b0 := mInputBuilds.Value()
	if _, err := runMatrix(context.Background(), &tab, ws, cfg, mcfg); err != nil {
		t.Fatal(err)
	}
	var want []string
	inputs := 0
	tasks := MatrixTasks(ws, cfg)
	for i, mt := range tasks {
		want = append(want, mt.Key()+" holds "+mt.Workload+"/"+mt.Input)
		if i == 0 || tasks[i-1].Input != mt.Input {
			inputs++
		}
	}
	if got := strings.Join(held, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("inputs held after each cell:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	if d := mInputBuilds.Value() - b0; d != int64(inputs) {
		t.Errorf("sweep built inputs %d times, want once per input (%d)", d, inputs)
	}
}

// TestMatrixKillAndResume is the acceptance criterion end to end at the
// harness level: interrupt a journaled sweep partway (context cancel
// mid-run plus a simulated crash that tears the final journal record),
// resume it, verify only unfinished cells re-run, and verify the merged
// old+new aggregate tables are byte-identical to an uninterrupted run.
func TestMatrixKillAndResume(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	total := MatrixTaskCount(ws, cfg)

	// Reference: the independent serial sweep.
	wantTables := renderAll(serialReference(t, ws, cfg), cfg)

	// Run 1: journaled, killed after a handful of cells.
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := superv.Create(path, "deesim", MatrixMeta(ws, cfg))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var cells atomic.Int64
	mcfg := MatrixConfig{Jobs: 2, Journal: j}
	mcfg.testCellHook = func(key string) {
		if cells.Add(1) == 5 {
			cancel()
		}
	}
	_, err = RunMatrixContext(ctx, ws, cfg, mcfg)
	cancel()
	j.Close()
	if !runx.IsKind(err, runx.KindCanceled) {
		t.Fatalf("interrupted run: %v, want KindCanceled", err)
	}

	// Simulate the crash landing mid-journal-write: tear the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	// Run 2: resume. Only unfinished cells may execute.
	j2, st, err := superv.Resume(path, "deesim", MatrixMeta(ws, cfg))
	if err != nil {
		t.Fatal(err)
	}
	doneBefore := len(st.Done)
	if doneBefore == 0 || doneBefore >= total {
		t.Fatalf("journal holds %d/%d cells — interruption missed the window", doneBefore, total)
	}
	var mu sync.Mutex
	fresh := map[string]bool{}
	mcfg2 := MatrixConfig{Jobs: 2, Journal: j2, Prior: st}
	mcfg2.testCellHook = func(key string) {
		mu.Lock()
		fresh[key] = true
		mu.Unlock()
	}
	got, err := RunMatrixContext(context.Background(), ws, cfg, mcfg2)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()

	if len(fresh)+doneBefore != total {
		t.Errorf("resume ran %d cells, journal held %d, matrix has %d", len(fresh), doneBefore, total)
	}
	for key := range st.Done {
		if fresh[key] {
			t.Errorf("journaled-complete cell %s re-executed on resume", key)
		}
	}
	if gotTables := renderAll(got, cfg); gotTables != wantTables {
		t.Errorf("resumed tables differ from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", gotTables, wantTables)
	}
}

func TestConfigValidate(t *testing.T) {
	base := matrixTestConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative-et", func(c *Config) { c.Resources = []int{8, -4} }},
		{"duplicate-et", func(c *Config) { c.Resources = []int{8, 8} }},
		{"duplicate-model", func(c *Config) { c.Models = []ilpsim.Model{ilpsim.ModelSP, ilpsim.ModelSP} }},
		{"negative-scale", func(c *Config) { c.Scale = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.withDefaults().Validate()
			if !runx.IsKind(err, runx.KindInvalidInput) {
				t.Errorf("got %v, want KindInvalidInput", err)
			}
		})
	}
	if err := base.withDefaults().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// The unlimited sentinel (ET=0) stays legal — it is a documented
	// resource level (the Lam & Wilson setting).
	zero := base
	zero.Resources = []int{0, 100}
	if err := zero.withDefaults().Validate(); err != nil {
		t.Errorf("unlimited sentinel rejected: %v", err)
	}
}

func TestDuplicateWorkloadsRejected(t *testing.T) {
	w, err := bench.ByName("xlisp")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunMatrixContext(context.Background(), []bench.Workload{w, w}, matrixTestConfig(), MatrixConfig{})
	if !runx.IsKind(err, runx.KindInvalidInput) {
		t.Errorf("RunMatrixContext accepted duplicate workloads: %v", err)
	}
}

// TestMatrixResumeRejectsChangedConfig: a journal recorded under one
// matrix shape must not silently merge into a run with another.
func TestMatrixResumeRejectsChangedConfig(t *testing.T) {
	cfg := matrixTestConfig()
	ws := matrixTestWorkloads(t)
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := superv.Create(path, "deesim", MatrixMeta(ws, cfg))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	changed := cfg
	changed.Resources = []int{8, 128}
	if _, _, err := superv.Resume(path, "deesim", MatrixMeta(ws, changed)); !runx.IsKind(err, runx.KindInvalidInput) {
		t.Errorf("changed matrix accepted on resume: %v", err)
	}
}

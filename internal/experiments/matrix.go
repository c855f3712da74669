package experiments

import (
	"context"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"deesim/internal/bench"
	"deesim/internal/budget"
	"deesim/internal/memo"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

// MatrixTask addresses one cell of the experiment matrix: a (workload
// input) × model × resource-level triple. Its Key is the journal task
// key, so two runs over the same matrix agree on task identity. The
// JSON tags fix the wire shape the distributed-sweep cell RPC uses.
type MatrixTask struct {
	Workload string `json:"workload"`
	Input    string `json:"input"` // input name within the workload
	Model    string `json:"model"`
	ET       int    `json:"et"`
}

// Key renders the task's journal identity,
// e.g. "espresso/cps|DEE-CD-MF|ET=64".
func (t MatrixTask) Key() string {
	return t.Workload + "/" + t.Input + "|" + t.Model + "|ET=" + strconv.Itoa(t.ET)
}

// CellResult is the JSON payload journaled per completed matrix cell.
// It carries everything merging needs: the cell's speedup and
// root-resolution rate plus the input-level statistics (identical
// across a given input's cells, recorded redundantly so any subset of
// cells reconstructs them). It is also the cell RPC's response body:
// a distributed sweep's coordinator journals these payloads verbatim
// and replays them through the same merge as a single-node run.
type CellResult struct {
	Workload string  `json:"workload"`
	Input    string  `json:"input"`
	Model    string  `json:"model"`
	ET       int     `json:"et"`
	Insts    int     `json:"insts"`
	Accuracy float64 `json:"accuracy"`
	Oracle   float64 `json:"oracle"`
	Speedup  float64 `json:"speedup"`
	RootRate float64 `json:"rootrate"`
}

// MatrixConfig parameterizes the supervised (journaled, resumable)
// sweep.
type MatrixConfig struct {
	// Jobs bounds the worker pool (minimum 1). Cells of the same input
	// wait for its one build, then run on its shared simulator in
	// parallel; distinct inputs run concurrently.
	Jobs int
	// Retry is the per-cell retry policy (see superv.RetryPolicy).
	Retry superv.RetryPolicy
	// Journal, if non-nil, durably records every cell start/finish.
	Journal *superv.Journal
	// Prior, if non-nil, is the replayed state of an interrupted run:
	// journaled cells are merged without re-execution.
	Prior *superv.State
	// OnRetry, if non-nil, observes retry decisions (serialized).
	OnRetry func(key string, attempt int, delay string, err error)
	// OnCell, if non-nil, observes every merged cell — fresh or
	// journal-replayed — after its result is durable, before it is
	// folded into the aggregates. Calls are serialized. deesimd uses it
	// for live job progress (and, under test, synthetic per-cell
	// pacing), so implementations may block: a slow OnCell throttles the
	// sweep but cannot lose results, because the journal record is
	// already fsync'd when it fires.
	OnCell func(key string, replayed bool)
	// Budget, if non-nil, is the shared retry budget every cell retry
	// draws from (see superv.Config.Budget).
	Budget *budget.Budget
	// Memo, if non-nil, is the content-addressed cell-result cache:
	// each cell consults it (keyed by CellMemoKey) before building its
	// input, so repeated sweeps skip already-computed cells entirely and
	// identical concurrent cells collapse onto one execution. Nil keeps
	// the historical behavior — every cell simulates — which is what
	// byte-identity-sensitive golden jobs run with.
	Memo *memo.Memo

	// testCellHook, when set by tests, observes each freshly-executed
	// cell key — the seam kill-and-resume tests use to cancel mid-sweep.
	testCellHook func(key string)
}

// MatrixMeta digests the sweep-identity settings into the journal
// header, so -resume refuses a journal recorded under a different
// matrix (whose task keys and results would silently disagree).
func MatrixMeta(ws []bench.Workload, cfg Config) map[string]string {
	cfg = cfg.withDefaults()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	models := make([]string, len(cfg.Models))
	for i, m := range cfg.Models {
		models[i] = m.String()
	}
	ets := make([]string, len(cfg.Resources))
	for i, et := range cfg.Resources {
		ets[i] = strconv.Itoa(et)
	}
	return map[string]string{
		"workloads": strings.Join(names, ","),
		"models":    strings.Join(models, ","),
		"resources": strings.Join(ets, ","),
		"predictor": cfg.Predictor,
		"scale":     strconv.Itoa(cfg.Scale),
		"max":       strconv.FormatUint(cfg.MaxInstrs, 10),
		"opts":      canonOpts(cfg.Opts),
	}
}

// RunMatrixContext is the sweep engine: it decomposes the sweep into
// addressable (input × model × ET) tasks, runs them on a bounded worker
// pool under per-task retry, and — when a journal is configured —
// records every start/finish durably so an interrupted run resumes
// where it stopped. Results merged from a resumed journal flow through
// the same aggregation as fresh ones (aggregateWorkload,
// crossWorkloadMean), so the final tables are byte-identical to an
// uninterrupted run's. Cells draw their inputs from one Inputs table
// per sweep, so an input is built once and dropped as soon as the
// next input is acquired.
//
// On failure or cancellation the first error cancels the remaining
// cells, and the workload results that did complete are returned
// alongside it (in configured order) so callers can report partial
// progress.
func RunMatrixContext(ctx context.Context, ws []bench.Workload, cfg Config, mcfg MatrixConfig) ([]*WorkloadResult, error) {
	return runMatrix(ctx, new(Inputs), ws, cfg, mcfg)
}

// runMatrix is RunMatrixContext over a given table.
func runMatrix(ctx context.Context, tab *Inputs, ws []bench.Workload, cfg Config, mcfg MatrixConfig) ([]*WorkloadResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateWorkloads(ws); err != nil {
		return nil, err
	}

	type inputAgg struct {
		res       *InputResult
		remaining int
	}
	inputAggs := make(map[string]*inputAgg) // key "workload/input"
	workRemaining := make(map[string]int)   // cells left per workload
	inputOrder := make(map[string][]string) // workload -> input keys in order

	var tasks []superv.Task
	for _, w := range ws {
		for _, in := range w.Inputs {
			ikey := w.Name + "/" + in.Name
			inputAggs[ikey] = &inputAgg{
				res: &InputResult{
					Input:    ikey,
					Speedup:  make(map[string]map[int]float64),
					RootRate: make(map[string]map[int]float64),
				},
				remaining: len(cfg.Models) * len(cfg.Resources),
			}
			inputOrder[w.Name] = append(inputOrder[w.Name], ikey)
			workRemaining[w.Name] += len(cfg.Models) * len(cfg.Resources)
			for _, m := range cfg.Models {
				for _, et := range cfg.Resources {
					mt := MatrixTask{Workload: w.Name, Input: in.Name, Model: m.String(), ET: et}
					tasks = append(tasks, superv.Task{
						Key: mt.Key(),
						Run: func(ctx context.Context) (any, error) {
							return tab.cell(ctx, mcfg.Memo, in.Build, m, mt, cfg)
						},
					})
				}
			}
		}
	}

	var (
		mu       sync.Mutex // guards the aggregation maps and `done`
		done     []*WorkloadResult
		mergeErr error
	)
	onDone := func(key string, payload json.RawMessage, replayed bool) {
		var cell CellResult
		if err := json.Unmarshal(payload, &cell); err != nil {
			mu.Lock()
			if mergeErr == nil {
				mergeErr = runx.Newf(runx.KindCorrupt, "experiments.RunMatrix", "journaled result %s: %w", key, err)
			}
			mu.Unlock()
			return
		}
		if !replayed && mcfg.testCellHook != nil {
			mcfg.testCellHook(key)
		}
		if mcfg.OnCell != nil {
			mcfg.OnCell(key, replayed)
		}
		mu.Lock()
		defer mu.Unlock()
		ikey := cell.Workload + "/" + cell.Input
		agg, ok := inputAggs[ikey]
		if !ok || agg.remaining <= 0 {
			return // journaled cell outside this run's matrix; ignore
		}
		r := agg.res
		r.Insts, r.Accuracy, r.Oracle = cell.Insts, cell.Accuracy, cell.Oracle
		if r.Speedup[cell.Model] == nil {
			r.Speedup[cell.Model] = make(map[int]float64, len(cfg.Resources))
			r.RootRate[cell.Model] = make(map[int]float64, len(cfg.Resources))
		}
		r.Speedup[cell.Model][cell.ET] = cell.Speedup
		r.RootRate[cell.Model][cell.ET] = cell.RootRate
		agg.remaining--
		workRemaining[cell.Workload]--
		if workRemaining[cell.Workload] == 0 {
			inputs := make([]*InputResult, len(inputOrder[cell.Workload]))
			for i, k := range inputOrder[cell.Workload] {
				inputs[i] = inputAggs[k].res
			}
			wr, err := aggregateWorkload(cell.Workload, inputs, cfg)
			if err != nil {
				if mergeErr == nil {
					mergeErr = err
				}
				return
			}
			done = append(done, wr)
		}
	}

	scfg := superv.Config{
		Jobs:    mcfg.Jobs,
		Retry:   mcfg.Retry,
		Journal: mcfg.Journal,
		Prior:   mcfg.Prior,
		OnDone:  onDone,
		Budget:  mcfg.Budget,
	}
	if mcfg.OnRetry != nil {
		scfg.OnRetry = func(key string, attempt int, delay time.Duration, err error) {
			mcfg.OnRetry(key, attempt, delay.String(), err)
		}
	}
	runErr := superv.Run(ctx, tasks, scfg)

	mu.Lock()
	defer mu.Unlock()
	// Deterministic output order: workloads as configured, regardless of
	// completion interleaving.
	order := make(map[string]int, len(ws))
	for i, w := range ws {
		order[w.Name] = i
	}
	sort.SliceStable(done, func(i, j int) bool { return order[done[i].Workload] < order[done[j].Workload] })
	if runErr == nil {
		runErr = mergeErr
	}
	if runErr != nil {
		return done, runErr
	}
	if len(done) > 1 {
		hm, err := crossWorkloadMean(done, cfg)
		if err != nil {
			return done, err
		}
		done = append(done, hm)
	}
	return done, nil
}

// MatrixTaskCount reports how many journal tasks a sweep decomposes
// into — for progress summaries.
func MatrixTaskCount(ws []bench.Workload, cfg Config) int {
	cfg = cfg.withDefaults()
	n := 0
	for _, w := range ws {
		n += len(w.Inputs) * len(cfg.Models) * len(cfg.Resources)
	}
	return n
}

// MatrixTasks enumerates the sweep's cells in the same deterministic
// order RunMatrixContext queues them (workloads as given, then inputs,
// models, resource levels). A distributed coordinator uses this as the
// authoritative task decomposition, so its cells are exactly the cells
// a single-node journaled run would execute.
func MatrixTasks(ws []bench.Workload, cfg Config) []MatrixTask {
	cfg = cfg.withDefaults()
	tasks := make([]MatrixTask, 0, MatrixTaskCount(ws, cfg))
	for _, w := range ws {
		for _, in := range w.Inputs {
			for _, m := range cfg.Models {
				for _, et := range cfg.Resources {
					tasks = append(tasks, MatrixTask{Workload: w.Name, Input: in.Name, Model: m.String(), ET: et})
				}
			}
		}
	}
	return tasks
}

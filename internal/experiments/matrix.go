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
	"deesim/internal/ilpsim"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/superv"
	"deesim/internal/trace"
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
	// serialize on that input's shared simulator; distinct inputs run
	// concurrently.
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
	// testReleased, when set by tests, observes an input's shared
	// simulator right after its last cell merged and it was released.
	testReleased func(input string, e *inputSim)
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

// inputSim lazily builds the per-input trace + prepared simulator
// shared by that input's matrix cells. Only the build is serialized on
// mu; the runs themselves proceed unlocked and in parallel, because
// ilpsim.Sim is read-only after construction and documented safe for
// concurrent RunContext calls — a pool of workers can fan all of one
// input's (model × ET) cells over a single prepared Sim at once.
// Building inside the first cell's attempt keeps build failures
// attributed — and retried — as that cell's.
type inputSim struct {
	mu    sync.Mutex
	build buildable
	name  string // "workload/input", the benchmark attribution
	tr    *trace.Trace
	sim   *ilpsim.Sim
}

// get returns the shared trace and simulator, building them under the
// lock on first use.
func (e *inputSim) get(ctx context.Context, cfg Config) (*trace.Trace, *ilpsim.Sim, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tr == nil || e.sim == nil {
		// The build runs inside the first cell attempt that needs it, so
		// its span nests under that cell's span.
		_, endSpan := obs.StartSpan(ctx, "build "+e.name, nil)
		defer endSpan()
	}
	if e.tr == nil {
		tr, err := recordInput(ctx, e.name, e.build, cfg)
		if err != nil {
			return nil, nil, err
		}
		e.tr = tr
	}
	if e.sim == nil {
		sim, err := newInputSim(ctx, e.name, e.tr, cfg)
		if err != nil {
			return nil, nil, err
		}
		e.sim = sim
	}
	return e.tr, e.sim, nil
}

// drop discards the shared simulator if it is still the given one, so
// the next cell (or the retry) rebuilds from scratch. Concurrent cells
// already running on the old simulator finish on it safely; only new
// acquisitions see the rebuild.
func (e *inputSim) drop(sim *ilpsim.Sim) {
	e.mu.Lock()
	if e.sim == sim {
		e.sim = nil
	}
	e.mu.Unlock()
}

// release discards the trace and simulator once the input's last cell
// has merged, so a sweep holds only the inputs still in flight rather
// than every input it has touched.
func (e *inputSim) release() {
	e.mu.Lock()
	e.tr, e.sim = nil, nil
	e.mu.Unlock()
}

// run executes one cell on the shared simulator.
func (e *inputSim) run(ctx context.Context, t MatrixTask, cfg Config) (*CellResult, error) {
	mCellsStarted.Inc()
	ctx, endSpan := obs.StartSpan(ctx, "cell "+t.Key(), map[string]string{
		"workload": t.Workload, "input": t.Input, "model": t.Model, "et": strconv.Itoa(t.ET),
	})
	start := time.Now()
	defer func() {
		endSpan()
		traceID := ""
		if tc, ok := obs.TraceContextFrom(ctx); ok {
			traceID = tc.TraceID
		}
		mCellDuration.ObserveExemplar(time.Since(start).Seconds(), traceID)
	}()
	tr, sim, err := e.get(ctx, cfg)
	if err != nil {
		return nil, err
	}
	model, err := modelByName(t.Model, cfg)
	if err != nil {
		return nil, runx.Annotate(err, e.name)
	}
	var r ilpsim.Result
	if t.ET == 0 {
		r, err = sim.RunUnlimitedContext(ctx, model)
	} else {
		r, err = sim.RunContext(ctx, model, t.ET)
	}
	if err != nil {
		// A fault-injected memory system can bake bad latencies into the
		// prepared simulator; drop it so the retry (or the input's next
		// cell) starts from a freshly prepared one.
		if runx.Retryable(err) {
			e.drop(sim)
		}
		return nil, runx.Annotate(err, e.name)
	}
	return &CellResult{
		Workload: t.Workload,
		Input:    t.Input,
		Model:    t.Model,
		ET:       t.ET,
		Insts:    tr.Len(),
		Accuracy: sim.Accuracy(),
		Oracle:   sim.Oracle().Speedup,
		Speedup:  r.Speedup,
		RootRate: r.RootResolutionRate(),
	}, nil
}

// modelByName resolves a model name against the run's configured set.
func modelByName(name string, cfg Config) (ilpsim.Model, error) {
	for _, m := range cfg.Models {
		if m.String() == name {
			return m, nil
		}
	}
	return ilpsim.Model{}, runx.Newf(runx.KindInvalidInput, "experiments.RunMatrix", "model %q not in this run's configuration", name)
}

// RunMatrixContext is the sweep engine: it decomposes the sweep into
// addressable (input × model × ET) tasks, runs them on a bounded worker
// pool under per-task retry, and — when a journal is configured —
// records every start/finish durably so an interrupted run resumes
// where it stopped. Results merged from a resumed journal flow through
// the same aggregation as fresh ones (aggregateWorkload,
// crossWorkloadMean), so the final tables are byte-identical to an
// uninterrupted run's. Each input's trace and prepared simulator are
// released as soon as its last cell merges.
//
// On failure or cancellation the first error cancels the remaining
// cells, and the workload results that did complete are returned
// alongside it (in configured order) so callers can report partial
// progress.
func RunMatrixContext(ctx context.Context, ws []bench.Workload, cfg Config, mcfg MatrixConfig) ([]*WorkloadResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateWorkloads(ws); err != nil {
		return nil, err
	}

	sims := make(map[string]*inputSim)
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
			sims[ikey] = &inputSim{build: in.Build, name: ikey}
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
					ent := sims[ikey]
					tasks = append(tasks, superv.Task{
						Key: mt.Key(),
						Run: func(ctx context.Context) (any, error) {
							if mcfg.Memo != nil {
								return memoizedCell(ctx, mcfg.Memo, mt, cfg, func(ctx context.Context) (*CellResult, error) {
									return ent.run(ctx, mt, cfg)
								})
							}
							cell, err := ent.run(ctx, mt, cfg)
							if err != nil {
								return nil, err
							}
							return cell, nil
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
		if agg.remaining == 0 {
			sims[ikey].release()
			if mcfg.testReleased != nil {
				mcfg.testReleased(ikey, sims[ikey])
			}
		}
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

// RunCell executes exactly one matrix cell: it builds the cell's input
// (trace + prepared simulator) and runs the (model, ET) simulation,
// returning the same CellResult payload a journaled sweep records.
// This is the worker half of a distributed sweep — a deesimd node
// serves leased cells through it. Unknown workloads, inputs, or models
// are typed KindInvalidInput so a coordinator never re-dispatches a
// structurally impossible cell.
func RunCell(ctx context.Context, ws []bench.Workload, cfg Config, t MatrixTask) (*CellResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateWorkloads(ws); err != nil {
		return nil, err
	}
	const stage = "experiments.RunCell"
	for _, w := range ws {
		if w.Name != t.Workload {
			continue
		}
		for _, in := range w.Inputs {
			if in.Name != t.Input {
				continue
			}
			ent := &inputSim{build: in.Build, name: w.Name + "/" + in.Name}
			return ent.run(ctx, t, cfg)
		}
		return nil, runx.Newf(runx.KindInvalidInput, stage, "workload %q has no input %q", t.Workload, t.Input)
	}
	return nil, runx.Newf(runx.KindInvalidInput, stage, "unknown workload %q", t.Workload)
}

// RunCellMemo is RunCell behind the content-addressed cache: a hit
// (or a collapse onto an identical in-flight cell) skips the trace
// build and simulation entirely; a miss computes through RunCell and
// stores the result. A nil memo is exactly RunCell.
func RunCellMemo(ctx context.Context, m *memo.Memo, ws []bench.Workload, cfg Config, t MatrixTask) (*CellResult, error) {
	if m == nil {
		return RunCell(ctx, ws, cfg, t)
	}
	return memoizedCell(ctx, m, t, cfg, func(ctx context.Context) (*CellResult, error) {
		return RunCell(ctx, ws, cfg, t)
	})
}

// memoizedCell runs one cell through the memo's singleflight: compute
// on miss, share the in-flight result with identical concurrent
// cells, and decode whatever bytes the cache settles on. The decoded
// struct re-marshals to the same JSON a fresh run would journal, so
// memoized and fresh sweeps stay byte-identical.
func memoizedCell(ctx context.Context, m *memo.Memo, t MatrixTask, cfg Config, run func(ctx context.Context) (*CellResult, error)) (*CellResult, error) {
	data, err := m.Do(ctx, CellMemoKey(cfg, t), func(ctx context.Context) ([]byte, error) {
		cell, err := run(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(cell)
	})
	if err != nil {
		return nil, err
	}
	var cell CellResult
	if err := json.Unmarshal(data, &cell); err != nil {
		return nil, runx.Newf(runx.KindCorrupt, "experiments.RunCell", "memo payload for %s: %w", t.Key(), err)
	}
	return &cell, nil
}

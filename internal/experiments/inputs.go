package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"deesim/internal/bench"
	"deesim/internal/ilpsim"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/predictor"
	"deesim/internal/runx"
	"deesim/internal/trace"
)

// Inputs is the table of prepared inputs — a recorded trace plus its
// prepared simulator — behind every matrix cell: the Lam & Wilson
// method of recording an input once and laying every (model, ET) cell
// over it. A sweep keeps one table for its run and deesimd keeps one
// for its lifetime, so a worker's consecutive leased cells of one
// input reuse one build. The zero value is ready to use.
//
// An entry is refcounted while cells use it and built lazily inside the
// first cell's attempt. The table keeps at most one idle entry, the
// last one released, and drops it as soon as a different input is
// acquired, before that input's build starts: it holds the inputs in
// use plus one, never every input it has seen.
type Inputs struct {
	mu      sync.Mutex
	entries map[inputKey]*inputSim // in use, plus at most one idle
	idle    *inputSim              // the last entry released, if unused since
}

// inputKey is everything a prepared input depends on. Options are
// compared by value after withDefaults, which compares their Cache and
// Mem pointers by identity: configs with distinct memory systems never
// share a simulator. (A Mem whose dynamic type is not comparable
// panics here, as it already does in withDefaults.)
type inputKey struct {
	workload, input string
	scale           int
	max             uint64
	predictor       string
	opts            ilpsim.Options
}

// acquire returns the entry for k, holding it until release.
func (in *Inputs) acquire(k inputKey, build buildable) *inputSim {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.idle != nil && in.idle.key != k {
		delete(in.entries, in.idle.key)
	}
	in.idle = nil // dropped, or about to be in use again
	e := in.entries[k]
	if e == nil {
		if in.entries == nil {
			in.entries = make(map[inputKey]*inputSim)
		}
		e = &inputSim{key: k, build: build, name: k.workload + "/" + k.input}
		in.entries[k] = e
	}
	e.refs++
	return e
}

// release ends one cell's hold on e. The last holder leaves it as the
// table's one idle entry, displacing any earlier one.
func (in *Inputs) release(e *inputSim) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if e.refs--; e.refs > 0 {
		return
	}
	if in.idle != nil {
		delete(in.entries, in.idle.key)
	}
	in.idle = e
}

// RunCell executes one matrix cell through the table and returns the
// same CellResult payload a journaled sweep records. This is the worker
// half of a distributed sweep — deesimd serves every leased cell
// through its table. Unknown workloads, inputs, models or resource
// levels are typed KindInvalidInput, so a coordinator never
// re-dispatches a structurally impossible cell. A non-nil m is the
// content-addressed cache: a hit (or a collapse onto an identical
// in-flight cell) skips the input and the simulation entirely.
func (in *Inputs) RunCell(ctx context.Context, m *memo.Memo, ws []bench.Workload, cfg Config, t MatrixTask) (*CellResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateWorkloads(ws); err != nil {
		return nil, err
	}
	build, model, err := resolveCell(ws, cfg, t)
	if err != nil {
		return nil, err
	}
	return in.cell(ctx, m, build, model, t, cfg)
}

// RunCell executes exactly one matrix cell on a fresh table, so it
// builds the cell's input before running it.
func RunCell(ctx context.Context, ws []bench.Workload, cfg Config, t MatrixTask) (*CellResult, error) {
	return new(Inputs).RunCell(ctx, nil, ws, cfg, t)
}

// resolveCell finds the task's input builder and model in the run's
// configuration.
func resolveCell(ws []bench.Workload, cfg Config, t MatrixTask) (buildable, ilpsim.Model, error) {
	for _, w := range ws {
		for _, in := range w.Inputs {
			for _, m := range cfg.Models {
				if w.Name == t.Workload && in.Name == t.Input && m.String() == t.Model && slices.Contains(cfg.Resources, t.ET) {
					return in.Build, m, nil
				}
			}
		}
	}
	return nil, ilpsim.Model{}, runx.Newf(runx.KindInvalidInput, "experiments.RunCell", "task %s outside this run's configuration", t.Key())
}

// cell runs one resolved cell, holding the cell's input for the
// attempt. With a memo it runs through the memo's singleflight: compute
// on miss, share the in-flight result with identical concurrent cells,
// and decode whatever bytes the cache settles on. The decoded struct
// re-marshals to the same JSON a fresh run would journal, so memoized
// and fresh sweeps stay byte-identical.
func (in *Inputs) cell(ctx context.Context, m *memo.Memo, build buildable, model ilpsim.Model, t MatrixTask, cfg Config) (*CellResult, error) {
	run := func(ctx context.Context) (*CellResult, error) {
		e := in.acquire(inputKey{t.Workload, t.Input, cfg.Scale, cfg.MaxInstrs, cfg.Predictor, cfg.Opts}, build)
		defer in.release(e)
		return e.run(ctx, t, model, cfg)
	}
	if m == nil {
		return run(ctx)
	}
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

// inputSim is one table entry: an input's trace and prepared simulator,
// built lazily. Only the build is serialized on mu; the runs themselves
// proceed unlocked and in parallel, because ilpsim.Sim is read-only
// after construction and documented safe for concurrent RunContext
// calls — a pool of workers can fan all of one input's (model × ET)
// cells over a single prepared Sim at once. Building inside the first
// cell's attempt keeps build failures attributed — and retried — as
// that cell's.
type inputSim struct {
	key  inputKey
	refs int // cells holding the entry, guarded by Inputs.mu

	mu    sync.Mutex
	build buildable
	name  string // "workload/input", the benchmark attribution
	tr    *trace.Trace
	sim   *ilpsim.Sim
}

// get returns the shared trace and simulator, building them under the
// lock on first use: the input's program, its recorded trace, then the
// prepared simulator.
func (e *inputSim) get(ctx context.Context, cfg Config) (*trace.Trace, *ilpsim.Sim, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tr != nil && e.sim != nil {
		return e.tr, e.sim, nil
	}
	// The build runs inside the first cell attempt that needs it, so its
	// span nests under that cell's span.
	mInputBuilds.Inc()
	_, endSpan := obs.StartSpan(ctx, "build "+e.name, nil)
	defer endSpan()
	if e.tr == nil {
		p, err := e.build(cfg.Scale)
		if err != nil {
			return nil, nil, fmt.Errorf("build %s: %w", e.name, err)
		}
		tr, err := trace.RecordContext(ctx, p, cfg.MaxInstrs)
		if err != nil {
			return nil, nil, runx.Annotate(err, e.name)
		}
		e.tr = tr
	}
	pred, err := predictor.New(cfg.Predictor)
	if err != nil {
		return nil, nil, err
	}
	sim, err := ilpsim.NewContext(ctx, e.tr, pred, cfg.Opts)
	if err != nil {
		return nil, nil, runx.Annotate(err, e.name)
	}
	e.sim = sim
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

// run executes one cell on the shared simulator.
func (e *inputSim) run(ctx context.Context, t MatrixTask, model ilpsim.Model, cfg Config) (*CellResult, error) {
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

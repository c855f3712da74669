package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"deesim/internal/bench"
	"deesim/internal/budget"
	"deesim/internal/client"
	"deesim/internal/durable"
	"deesim/internal/experiments"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/server"
	"deesim/internal/superv"
)

const stageCoord = "coord"

// WorkerClient is the coordinator's view of one worker: run a leased
// cell, synchronously, returning the CellResult bytes verbatim. The
// production implementation is client.Client (per-worker breaker
// included); scheduler tests swap in fakes that stall, crash, lie, and
// duplicate.
type WorkerClient interface {
	RunCell(ctx context.Context, req server.CellRequest) (json.RawMessage, error)
}

// Config parameterizes the coordinator.
type Config struct {
	// StateDir is the durable root: sweeps/<id>/{spec.json,
	// coord.journal, result.json, failed.json}.
	StateDir string
	// QueueDepth bounds sweeps accepted but not yet running (default 8).
	QueueDepth int
	// LeaseTTL is the wall-clock bound on one cell lease; an expired
	// lease re-dispatches the cell (default 2m). Must exceed the
	// workers' CellTimeout or healthy slow cells get revoked.
	LeaseTTL time.Duration
	// HeartbeatTimeout is how stale a worker's heartbeat may grow before
	// the coordinator declares it lost and expires its leases
	// (default 15s).
	HeartbeatTimeout time.Duration
	// HeartbeatEvery is the cadence workers are told to beat at
	// (default HeartbeatTimeout/3).
	HeartbeatEvery time.Duration
	// CellRetries bounds re-dispatches per cell beyond the first attempt
	// (default 2). Lease expiries and retryable worker errors consume
	// the same budget.
	CellRetries int
	// Backoff seeds the per-cell re-dispatch backoff (superv's capped
	// seeded-jitter policy; default 250ms).
	Backoff time.Duration
	// StragglerFactor triggers speculation: once the pending queue is
	// empty, a lease running longer than factor × the median completed
	// cell duration gets a speculative duplicate on an idle worker
	// (default 3; 0 disables).
	StragglerFactor float64
	// RequestTimeout bounds each API request (default 10s).
	RequestTimeout time.Duration
	// DrainGrace is how long Drain lets the running sweep finish before
	// canceling it (default 15s).
	DrainGrace time.Duration
	// RetryAfter is the backoff hint sent with 429/503 (default 2s).
	RetryAfter time.Duration
	// CellTimeout is the per-RPC HTTP budget for dispatches (default
	// LeaseTTL + 10s, so the lease — not the transport — is the
	// authority on giving up).
	CellTimeout time.Duration
	// Logf, Logger, Metrics: as in server.Config.
	Logf    func(format string, args ...any)
	Logger  *slog.Logger
	Metrics *obs.Registry
	// NewWorkerClient builds the client for a registered worker's base
	// URL. Nil means a client.Client with a single attempt and a
	// per-worker breaker. Tests inject fakes here.
	NewWorkerClient func(baseURL string) WorkerClient
	// Budget is the shared retry budget cell re-dispatch draws from: each
	// re-dispatch after an expiry or retryable worker failure withdraws
	// one token under the "coord" layer label, and an exhausted budget
	// fails the sweep instead of re-dispatching — bounding total retry
	// amplification across the fleet no matter how many cells are
	// flapping. Nil means unlimited (the pre-budget behavior).
	Budget *budget.Budget
	// Memo, if non-nil, is the content-addressed cell-result cache: a
	// sweep consults it before leasing any cell to the fleet (hits are
	// journaled as done by the pseudo-worker "memo" without a dispatch),
	// and every fleet-computed result is recorded back into it, so the
	// next sweep over overlapping cells skips them. Nil — the default —
	// dispatches every cell, which byte-identity proofs rely on.
	Memo *memo.Memo
	// FS is the filesystem every durable write goes through; nil means
	// the real one. Tests inject faultinject.FaultyFS here.
	FS durable.FS
	// Frags, if non-nil, is the coordinator's own durable span-fragment
	// log: sweep roots, queue waits, lease dispatches, and merges record
	// here. The lease-dispatch spans double as the clock-skew reference
	// the trace merge aligns worker fragments against. Nil records
	// nothing (and GET /v1/trace serves worker fragments unadjusted).
	Frags *obs.FragmentLog
	// now is the clock seam for tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Minute
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 15 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.HeartbeatTimeout / 3
	}
	if c.CellRetries < 0 {
		c.CellRetries = 0
	} else if c.CellRetries == 0 {
		c.CellRetries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 250 * time.Millisecond
	}
	if c.StragglerFactor < 0 {
		c.StragglerFactor = 0
	} else if c.StragglerFactor == 0 {
		c.StragglerFactor = 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 15 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.CellTimeout <= 0 {
		c.CellTimeout = c.LeaseTTL + 10*time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Logger == nil {
		c.Logger = obs.Discard
	}
	if c.now == nil {
		c.now = time.Now
	}
	c.FS = durable.Or(c.FS)
	return c
}

// worker is one registered deesimd instance.
type worker struct {
	id       string
	url      string
	slots    int
	state    string // last advertised tri-state (or "lost")
	inflight int    // worker-reported cells executing
	lastBeat time.Time
	lost     bool // heartbeat stale beyond HeartbeatTimeout
	leases   int  // coordinator-side outstanding leases
	client   WorkerClient
}

// WorkerStatus is the fleet API's JSON rendering of a worker.
type WorkerStatus struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	State    string `json:"state"` // ready|busy|draining|lost
	Slots    int    `json:"slots"`
	Inflight int    `json:"inflight"`
	Leases   int    `json:"leases"`
	LastBeat string `json:"last_beat"` // staleness, e.g. "1.2s"
}

// Coordinator is the distributed-sweep control plane. Create with New,
// start the runner with Start, serve Handler() over HTTP, stop with
// Drain. Sweeps run one at a time — the fleet is the parallelism.
type Coordinator struct {
	*server.Store // sweeps/<id>/ records, recovery, status and the HTTP envelope

	cfg        Config
	met        *coordMetrics
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu          sync.Mutex
	workers     map[string]*worker
	wseq        int
	waiting     int
	queue       chan *server.Record
	queueClosed bool
	draining    bool
	running     map[string]context.CancelFunc

	wg sync.WaitGroup
}

// New builds a coordinator over StateDir, recovering sweeps a previous
// process left behind: completed ones serve their recorded results,
// incomplete ones re-queue and resume from their journals.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.NewWorkerClient == nil {
		cfg.NewWorkerClient = func(baseURL string) WorkerClient {
			c := client.New(baseURL)
			// One attempt per dispatch: the lease state machine owns cell
			// retry; the HTTP budget outlasts the lease so the lease — not
			// the transport — decides when to give up.
			c.Retry = superv.RetryPolicy{Attempts: 1}
			c.HTTP = &http.Client{Timeout: cfg.CellTimeout}
			return c
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		met:        newCoordMetrics(cfg.Metrics),
		baseCtx:    ctx,
		baseCancel: cancel,
		workers:    make(map[string]*worker),
		running:    make(map[string]context.CancelFunc),
	}
	// A corrupt result found on read is only quarantined: the next
	// restart's recovery re-runs the sweep, replaying its cells from the
	// coordinator journal, so no Heal hook.
	store, pending, err := server.NewStore(server.StoreConfig{
		Root: cfg.StateDir, Daemon: "deesim-coord", Noun: "sweep", Stage: stageCoord,
		DegradedNote: "shedding new sweeps, acked state intact",
		RetryAfter:   cfg.RetryAfter, FS: cfg.FS, Logf: cfg.Logf, Logger: cfg.Logger, Frags: cfg.Frags,
		ObserveHTTP: c.met.httpRequest,
		Counters: server.StoreCounters{
			Done: c.met.sweepsDone, Failed: c.met.sweepsFailed,
			Quarantined: c.met.quarantined, Healed: c.met.healed, LowDisk: c.met.lowDisk,
		},
	})
	if err != nil {
		cancel()
		return nil, err
	}
	c.Store = store
	c.queue = make(chan *server.Record, cfg.QueueDepth+len(pending)+1)
	for _, sw := range pending {
		c.waiting++
		c.queue <- sw
	}
	return c, nil
}

// Start launches the sweep runner. Call once.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go c.runner()
}

func (c *Coordinator) runner() {
	defer c.wg.Done()
	for sw := range c.queue {
		c.mu.Lock()
		if c.draining {
			c.mu.Unlock()
			continue // durable on disk; the next process resumes it
		}
		c.waiting--
		enqueued := c.Begin(sw)
		ctx, cancel := context.WithCancel(c.baseCtx)
		c.running[sw.ID] = cancel
		c.mu.Unlock()

		if tc, ok := sw.TraceCtx(); ok && !enqueued.IsZero() {
			_ = c.cfg.Frags.Append(obs.SpanFragment{
				Trace: tc.TraceID, Span: tc.Child().SpanID, Parent: tc.SpanID,
				Name:  "queue-wait " + sw.ID,
				Start: enqueued.UnixNano(), End: time.Now().UnixNano(),
				Attrs: map[string]string{"sweep": sw.ID},
			})
		}
		err := c.runSweep(ctx, sw)
		cancel()
		c.mu.Lock()
		delete(c.running, sw.ID)
		c.mu.Unlock()
		c.Finish(sw, err)
	}
}

// runSweep executes one distributed sweep end to end: decompose,
// lease/collect under the journal, then merge — and prove the merge.
func (c *Coordinator) runSweep(ctx context.Context, sw *server.Record) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = runx.FromPanic(r, "coord.runSweep")
		}
	}()
	ctx = obs.WithJobID(ctx, sw.ID)
	// Rejoin the trace the submission minted: the sweep span is the
	// coordinator's dispatch-to-merge record under the submission root,
	// and every lease span below nests under it.
	if tc, ok := sw.TraceCtx(); ok {
		ctx = obs.WithTraceContext(ctx, tc)
		ctx = obs.WithFragments(ctx, c.cfg.Frags)
		var endSweep func()
		ctx, endSweep = obs.StartSpan(ctx, "sweep "+sw.ID, map[string]string{"sweep": sw.ID})
		defer endSweep()
	}
	ws, cfg, err := sw.Spec.Resolve()
	if err != nil {
		return err
	}
	timeout, err := parseSpecDuration("timeout", sw.Spec.Timeout)
	if err != nil {
		return err
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	deadline, err := sw.Spec.ParseDeadline()
	if err != nil {
		return err
	}
	if !deadline.IsZero() {
		if !c.cfg.now().Before(deadline) {
			c.met.deadlineTimeouts.Inc()
			return runx.Newf(runx.KindTimeout, stageCoord,
				"sweep %s: deadline %s already passed before dispatch", sw.ID, deadline.Format(time.RFC3339))
		}
		// The absolute SLO deadline rides the sweep context, so every
		// outstanding lease RPC is cancelled the moment it passes; the
		// re-label below makes the terminal error name the deadline rather
		// than a bare context expiry.
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadline(ctx, deadline)
		defer dcancel()
		defer func() {
			if err != nil && runx.IsKind(err, runx.KindTimeout) && !time.Now().Before(deadline) {
				c.met.deadlineTimeouts.Inc()
				err = runx.Newf(runx.KindTimeout, stageCoord,
					"sweep %s exceeded its deadline %s: %w", sw.ID, deadline.Format(time.RFC3339), err)
			}
		}()
	}

	tasks := experiments.MatrixTasks(ws, cfg)
	meta := experiments.MatrixMeta(ws, cfg)
	jpath := filepath.Join(c.Dir(sw.ID), "coord.journal")
	var (
		jr    *Journal
		prior *State
	)
	if fileExists(jpath) {
		jr, prior, err = ResumeFS(c.cfg.FS, jpath, "deesim-coord", meta)
		if err != nil {
			if runx.IsKind(err, runx.KindUnavailable) {
				return err // disk full, not damage: park for resume
			}
			qp, qerr := c.QuarantineJournal(sw.ID, jpath, err)
			if qerr != nil {
				return qerr
			}
			c.cfg.Logf("deesim-coord: sweep %s: journal unusable (%v), quarantined to %s, restarting from scratch", sw.ID, err, qp)
			jr, prior = nil, nil
		} else {
			c.met.sweepsResumed.Inc()
			c.cfg.Logf("deesim-coord: sweep %s: resuming, %s", sw.ID, prior.Summary(len(tasks)))
		}
	}
	if jr == nil {
		if jr, err = CreateFS(c.cfg.FS, jpath, "deesim-coord", meta); err != nil {
			return err
		}
	}
	defer jr.Close()

	// Memo prefill: cells the cache already holds become durable done
	// records from the pseudo-worker "memo" before any lease is granted,
	// so the fleet only computes what no prior sweep has. The journal
	// record makes the hit crash-safe the same way a real completion is.
	memoKeys := make(map[string]string)
	if c.cfg.Memo != nil {
		if prior == nil {
			prior = newState()
		}
		for _, t := range tasks {
			key := t.Key()
			memoKeys[key] = experiments.CellMemoKey(cfg, t)
			if _, ok := prior.Done[key]; ok {
				continue
			}
			data, ok := c.cfg.Memo.Get(memoKeys[key])
			if !ok {
				continue
			}
			if err := jr.Append(Record{Kind: KindDone, Key: key, Worker: "memo", Result: data}); err != nil {
				return err
			}
			prior.Done[key] = data
		}
	}

	sched := newScheduler(c, sw, tasks, jr, prior)
	sched.memo, sched.memoKeys = c.cfg.Memo, memoKeys
	done, err := sched.run(ctx)
	if err != nil {
		return err
	}
	return c.mergeAndWrite(ctx, sw, ws, cfg, tasks, done)
}

// mergeAndWrite replays the collected cell payloads through the SAME
// aggregation path a single-node run uses — RunMatrixContext with the
// full cell set as prior state executes nothing and merges everything —
// then writes the result file with the identical final encoding. That
// construction, plus the completeness check below, is the merge proof:
// there is no coordinator-specific math to diverge.
func (c *Coordinator) mergeAndWrite(ctx context.Context, sw *server.Record, ws []bench.Workload, cfg experiments.Config, tasks []experiments.MatrixTask, done map[string]json.RawMessage) error {
	ctx, endMerge := obs.StartSpan(ctx, "merge "+sw.ID, map[string]string{"sweep": sw.ID})
	defer endMerge()
	for _, t := range tasks {
		if _, ok := done[t.Key()]; !ok {
			return runx.Newf(runx.KindCorrupt, stageCoord, "sweep %s: merge refused: cell %s has no result", sw.ID, t.Key())
		}
	}
	prior := &superv.State{Replay: durable.Replay{Done: done}}
	results, err := experiments.RunMatrixContext(ctx, ws, cfg, experiments.MatrixConfig{Jobs: 1, Prior: prior})
	if err != nil {
		return runx.Annotate(err, "sweep "+sw.ID+" merge")
	}
	c.met.mergeChecks.Inc()
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return runx.Newf(runx.KindUnknown, stageCoord, "sweep %s: marshal results: %w", sw.ID, err)
	}
	if err := durable.WriteFileAtomic(c.cfg.FS, c.ResultPath(sw.ID), append(data, '\n')); err != nil {
		if durable.IsNoSpace(err) {
			return runx.Newf(runx.KindUnavailable, stageCoord, "sweep %s: write result: %w", sw.ID, err)
		}
		return runx.Newf(runx.KindCorrupt, stageCoord, "sweep %s: write result: %w", sw.ID, err)
	}
	return nil
}

// Submit admits a distributed sweep with the worker daemon's admission
// contract: shed when full or draining, fsync the spec before the 202.
func (c *Coordinator) Submit(sp server.Spec) (*server.JobStatus, error) {
	return c.SubmitCtx(context.Background(), sp)
}

// SubmitCtx is Submit carrying the caller's context, from which
// Store.Create settles the sweep's trace, so every lease the fleet runs
// records under one trace id.
func (c *Coordinator) SubmitCtx(ctx context.Context, sp server.Spec) (*server.JobStatus, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if dl, err := sp.ParseDeadline(); err == nil && !dl.IsZero() && !c.cfg.now().Before(dl) {
		// A sweep whose deadline already passed is doomed: refuse it now,
		// typed KindTimeout, instead of queueing work that can only fail.
		c.met.deadlineTimeouts.Inc()
		return nil, runx.Newf(runx.KindTimeout, stageCoord,
			"deadline %s already passed at submission", dl.Format(time.RFC3339))
	}
	if err := c.LowDiskErr(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return nil, runx.Newf(runx.KindUnavailable, stageCoord, "draining: not accepting new sweeps")
	}
	if c.waiting >= c.cfg.QueueDepth {
		c.mu.Unlock()
		return nil, runx.Newf(runx.KindOverload, stageCoord,
			"admission queue full (%d waiting); retry after %s", c.cfg.QueueDepth, c.cfg.RetryAfter)
	}
	c.waiting++
	c.mu.Unlock()

	sw, err := c.Create(ctx, sp)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.waiting--
		return nil, err
	}
	if !c.queueClosed {
		c.queue <- sw
	}
	return c.Snapshot(sw), nil
}

// Draining reports whether drain has begun.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drain gracefully stops the coordinator: admission closes, the
// running sweep gets DrainGrace to finish, then its context is
// canceled — every granted lease is already journaled, so the next
// start resumes without re-running completed cells.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	if !c.draining {
		c.draining = true
		if !c.queueClosed {
			close(c.queue)
			c.queueClosed = true
		}
	}
	c.mu.Unlock()
	c.cfg.Logf("deesim-coord: draining: admission closed, waiting up to %s for the running sweep", c.cfg.DrainGrace)

	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	grace := time.NewTimer(c.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		c.cfg.Logf("deesim-coord: drain grace expired, canceling the running sweep (progress stays journaled)")
		c.cancelRunning()
		<-done
	case <-ctx.Done():
		c.cancelRunning()
		<-done
	}
	c.baseCancel()
	return nil
}

func (c *Coordinator) cancelRunning() {
	c.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(c.running))
	for _, cf := range c.running {
		cancels = append(cancels, cf)
	}
	c.mu.Unlock()
	for _, cf := range cancels {
		cf()
	}
}

// Close hard-stops the coordinator (tests).
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.draining = true
	if !c.queueClosed {
		close(c.queue)
		c.queueClosed = true
	}
	c.mu.Unlock()
	c.baseCancel()
	c.wg.Wait()
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func parseSpecDuration(name, val string) (time.Duration, error) {
	if val == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(val)
	if err != nil || d < 0 {
		return 0, runx.Newf(runx.KindInvalidInput, stageCoord, "bad %s %q (want a non-negative Go duration like \"30s\")", name, val)
	}
	return d, nil
}

// ---- Worker registry ----

// RegisterWorker admits (or refreshes) a worker. A re-registration
// under the same URL keeps the id stable, so a restarted worker
// reclaims its identity instead of leaking registry entries.
func (c *Coordinator) RegisterWorker(url string, slots int) (id string, every time.Duration, err error) {
	url = strings.TrimRight(url, "/")
	if url == "" {
		return "", 0, runx.Newf(runx.KindInvalidInput, stageCoord, "register: empty worker url")
	}
	if slots <= 0 {
		slots = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.url == url {
			w.slots = slots
			w.lastBeat = c.cfg.now()
			w.lost = false
			w.state = server.WorkerReady
			c.updateWorkersLiveLocked()
			return w.id, c.cfg.HeartbeatEvery, nil
		}
	}
	c.wseq++
	id = fmt.Sprintf("w%04d", c.wseq)
	c.workers[id] = &worker{
		id:       id,
		url:      url,
		slots:    slots,
		state:    server.WorkerReady,
		lastBeat: c.cfg.now(),
		client:   c.cfg.NewWorkerClient(url),
	}
	c.updateWorkersLiveLocked()
	c.cfg.Logf("deesim-coord: worker %s registered (%s, %d slots)", id, url, slots)
	return id, c.cfg.HeartbeatEvery, nil
}

// HeartbeatWorker records a worker's beat. Unknown ids are typed
// KindInvalidInput so the worker re-registers (a coordinator restart
// empties the registry; the fleet heals itself through this path).
func (c *Coordinator) HeartbeatWorker(id, state string, inflight int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return runx.Newf(runx.KindInvalidInput, stageCoord, "heartbeat from unknown worker %q (re-register)", id)
	}
	w.lastBeat = c.cfg.now()
	w.lost = false
	w.state = state
	w.inflight = inflight
	c.met.heartbeats.Inc()
	c.updateWorkersLiveLocked()
	return nil
}

// Fleet returns every registered worker's status, sorted by id.
func (c *Coordinator) Fleet() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		st := w.state
		if w.lost || now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			st = "lost"
		}
		out = append(out, WorkerStatus{
			ID: w.id, URL: w.url, State: st,
			Slots: w.slots, Inflight: w.inflight, Leases: w.leases,
			LastBeat: now.Sub(w.lastBeat).Round(100 * time.Millisecond).String(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// workerSnap is the scheduler's race-free view of one worker: a value
// snapshot taken under the registry lock, so the event loop never
// touches live registry fields concurrently with heartbeat handlers.
type workerSnap struct {
	id     string
	slots  int
	leases int
	state  string
	lost   bool
	client WorkerClient
}

// sweepWorkers marks stale workers lost (counting each transition) and
// returns the registry snapshot the scheduler picks from.
func (c *Coordinator) sweepWorkers() []*workerSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	out := make([]*workerSnap, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.lost && now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			w.lost = true
			c.met.workerEvictons.Inc()
			c.cfg.Logf("deesim-coord: worker %s (%s) lost: heartbeat stale by %s", w.id, w.url, now.Sub(w.lastBeat).Round(time.Millisecond))
		}
		out = append(out, &workerSnap{
			id: w.id, slots: w.slots, leases: w.leases,
			state: w.state, lost: w.lost, client: w.client,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	c.updateWorkersLiveLocked()
	return out
}

func (c *Coordinator) updateWorkersLiveLocked() {
	now := c.cfg.now()
	live := 0
	for _, w := range c.workers {
		if !w.lost && now.Sub(w.lastBeat) <= c.cfg.HeartbeatTimeout {
			live++
		}
	}
	c.met.workersLive.Set(float64(live))
}

// adjustLeases moves a worker's coordinator-side outstanding-lease
// count (delta ±1) under the registry lock.
func (c *Coordinator) adjustLeases(workerID string, delta int) {
	c.mu.Lock()
	if w, ok := c.workers[workerID]; ok {
		w.leases += delta
		if w.leases < 0 {
			w.leases = 0
		}
	}
	c.mu.Unlock()
}

// Package server implements deesimd, the fault-tolerant simulation
// service: an HTTP/JSON API that accepts sweep submissions, runs them
// on a bounded worker pool behind a bounded admission queue, and
// survives both overload and crashes.
//
// The robustness contract, end to end:
//
//   - Admission control: a submission is accepted only if the waiting
//     queue has room; otherwise it is shed with 429 + Retry-After.
//     Accepted means durable — the job spec is fsync'd to the state
//     directory before the 202 goes out, so an accepted job is never
//     lost, even to SIGKILL one instruction later.
//   - Execution: each job runs as a crash-safe superv sweep (journal,
//     bounded cell pool, typed-error retry), under the job's own
//     wall-clock deadline propagated into runx contexts.
//   - Isolation: every HTTP request and every job runs behind panic
//     isolation; a panicking handler is a 500, never a dead daemon.
//   - Drain: SIGTERM stops admission (503), lets running jobs finish
//     within a grace period, then cancels them; queued and interrupted
//     jobs stay journaled on disk.
//   - Recovery: on restart the state directory is scanned; completed
//     jobs serve their recorded results, incomplete ones are re-queued
//     and resume from their journals, replaying finished cells instead
//     of re-simulating them.
package server

import (
	"context"
	"encoding/json"
	"log/slog"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"deesim/internal/budget"
	"deesim/internal/durable"
	"deesim/internal/experiments"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

// Job states reported by the status API.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted" // canceled mid-run; resumes on restart
)

// Config parameterizes the daemon.
type Config struct {
	// StateDir is the durable root: jobs/<id>/{spec.json, run.journal,
	// result.json, failed.json}.
	StateDir string
	// QueueDepth bounds the interactive admission queue — interactive
	// jobs accepted but not yet running. Submissions beyond it are shed
	// with 429 (default 8).
	QueueDepth int
	// BatchQueueDepth bounds the batch lane's own queue; batch
	// submissions beyond it shed with 429 without touching interactive
	// capacity (default QueueDepth/2, minimum 1).
	BatchQueueDepth int
	// BrownoutWatermark is the interactive queue occupancy at which the
	// server enters brownout level 1 and sheds all new batch work, even
	// under the batch quota (default QueueDepth/2, minimum 1). See
	// brownout.go for the full ladder.
	BrownoutWatermark int
	// Workers is the number of jobs run concurrently (default 1).
	Workers int
	// CellJobs is the superv worker-pool size inside each job's matrix
	// sweep (default 4).
	CellJobs int
	// CellSlots bounds concurrently-leased distributed-sweep cells
	// (POST /v1/cells); requests beyond it are shed with 429 so the
	// coordinator leases elsewhere (default = CellJobs).
	CellSlots int
	// CellTimeout caps one leased cell's execution (default 5m). The
	// coordinator's lease TTL should exceed it.
	CellTimeout time.Duration
	// JobTimeout caps any job whose spec does not set its own tighter
	// deadline (0 = none).
	JobTimeout time.Duration
	// RequestTimeout bounds each API request's context (default 10s).
	RequestTimeout time.Duration
	// DrainGrace is how long Drain lets running jobs finish before
	// canceling them (default 15s).
	DrainGrace time.Duration
	// RetryAfter is the backoff hint sent with 429/503 (default 2s).
	RetryAfter time.Duration
	// Retries/Backoff are the per-cell defaults for specs that leave
	// them unset (defaults 2 and 250ms).
	Retries int
	Backoff time.Duration
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Logger, if non-nil, receives the structured access log — one line
	// per HTTP request, shed and drain responses included. Nil discards.
	Logger *slog.Logger
	// Metrics is the registry server series register on; nil means
	// obs.Default, so one /metrics scrape covers every layer of the
	// process. Tests pass private registries to isolate their gauges.
	Metrics *obs.Registry
	// Pprof enables the net/http/pprof handlers under /debug/pprof/.
	// Off by default: profiling endpoints are debug surface, not API.
	Pprof bool
	// FS is the filesystem every durable write goes through; nil means
	// the real one. Tests inject faultinject.FaultyFS here to drive the
	// disk-fault matrix hermetically.
	FS durable.FS
	// Budget, if non-nil, is the process-wide retry budget the job
	// sweeps' cell retries draw from. Nil means unlimited retries — the
	// pre-budget behavior.
	Budget *budget.Budget
	// Memo, if non-nil, is the content-addressed result cache: repeated
	// sweeps replay cached cells, identical concurrent submissions
	// (whole specs and leased cells alike) collapse onto one in-flight
	// computation, and every caller receives byte-identical results.
	// Nil — the default — keeps every submission simulating from
	// scratch, which byte-identity-sensitive golden jobs rely on.
	Memo *memo.Memo
	// Frags, if non-nil, is the process's durable span-fragment log:
	// traced requests, queue waits, jobs, and leased cells record their
	// spans here, and GET /v1/tracefrag serves them to the coordinator's
	// timeline merge. Nil records nothing.
	Frags *obs.FragmentLog
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.BatchQueueDepth <= 0 {
		c.BatchQueueDepth = c.QueueDepth / 2
		if c.BatchQueueDepth < 1 {
			c.BatchQueueDepth = 1
		}
	}
	if c.BrownoutWatermark <= 0 {
		c.BrownoutWatermark = c.QueueDepth / 2
		if c.BrownoutWatermark < 1 {
			c.BrownoutWatermark = 1
		}
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.CellJobs <= 0 {
		c.CellJobs = 4
	}
	if c.CellSlots <= 0 {
		c.CellSlots = c.CellJobs
	}
	if c.CellTimeout <= 0 {
		c.CellTimeout = 5 * time.Minute
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
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 250 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Logger == nil {
		c.Logger = obs.Discard
	}
	c.FS = durable.Or(c.FS)
	return c
}

// JobStatus is the status API's JSON rendering of a job. Priority and
// Deadline surface the SLO fields so a waiting client can tell a
// deadline-expired sweep from a generic failure; both are omitted for
// sweeps that never set them, keeping the wire shape old clients see
// unchanged.
type JobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	CellsDone  int    `json:"cells_done"`
	CellsTotal int    `json:"cells_total"`
	Resumed    bool   `json:"resumed,omitempty"`
	Error      string `json:"error,omitempty"`
	Kind       string `json:"kind,omitempty"`
	Priority   string `json:"priority,omitempty"`
	Deadline   string `json:"deadline,omitempty"`
}

// Server is the deesimd core: admission queue, worker pool, job
// registry, and durable state. Create with New, start workers with
// Start, serve Handler() over HTTP, and stop with Drain (graceful) or
// Close (hard, for tests).
type Server struct {
	*Store // jobs/<id>/ records, recovery, status and the HTTP envelope

	cfg        Config
	met        *serverMetrics
	baseCtx    context.Context
	baseCancel context.CancelFunc

	cellSlots   chan struct{} // leased-cell admission (capacity CellSlots)
	cellsActive int64         // leased cells executing right now (atomic)

	mu           sync.Mutex
	waitingInt   int       // queued interactive jobs, against QueueDepth
	waitingBatch int       // queued batch jobs, against BatchQueueDepth
	pendInt      []*Record // interactive lane, FIFO
	pendBatch    []*Record // batch lane, FIFO; drained only when pendInt is empty
	wake         chan struct{}
	wakeClosed   bool
	draining     bool
	brownout     int // last published brownout level (gauge shadow)
	running      map[string]context.CancelFunc

	wg sync.WaitGroup
}

const stageServer = "server"

// New builds a server over StateDir, recovering any jobs a previous
// process left behind: completed jobs are indexed for result serving,
// incomplete ones re-queued for resumption (their journals replay
// finished cells). It does not start workers; call Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		met:        newServerMetrics(cfg.Metrics),
		baseCtx:    ctx,
		baseCancel: cancel,
		cellSlots:  make(chan struct{}, cfg.CellSlots),
		running:    make(map[string]context.CancelFunc),
	}
	store, pending, err := NewStore(StoreConfig{
		Root: cfg.StateDir, Daemon: "deesimd", Noun: "job", Stage: stageServer,
		DegradedNote: "shedding new work, previously-acked state intact",
		RetryAfter:   cfg.RetryAfter, FS: cfg.FS, Logf: cfg.Logf, Logger: cfg.Logger, Frags: cfg.Frags,
		ObserveHTTP: s.met.httpRequest,
		AccessJobID: true,
		Counters: StoreCounters{
			Done: s.met.jobsDone, Failed: s.met.jobsFailed, Interrupted: s.met.jobsIntr,
			Quarantined: s.met.quarantined, Healed: s.met.healed, LowDisk: s.met.lowDisk,
		},
		Heal: s.requeueForHeal,
		// Degraded is brownout level 3 (reads only); publish the transition.
		OnDegraded: s.noteReadsOnly,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	s.Store = store
	// Capacity covers both lanes' admission bounds plus everything
	// recovery may enqueue, so wake-token sends made while holding s.mu
	// can never block.
	s.wake = make(chan struct{}, cfg.QueueDepth+cfg.BatchQueueDepth+len(pending)+cfg.Workers)
	for _, jb := range pending {
		jb.Enqueued = time.Now()
		s.pushLocked(jb)
		s.met.jobsResumed.Inc()
		s.wake <- struct{}{}
	}
	s.updateQueueGaugesLocked()
	return s, nil
}

// pushLocked appends a job to its class's lane and bumps that lane's
// waiting count. Callers that already reserved the waiting slot at
// admission (Submit) must decrement first — the counter is owned here.
// Caller holds s.mu (or, in New, owns the server exclusively).
func (s *Server) pushLocked(jb *Record) {
	if jb.Spec.Class() == PriorityBatch {
		s.pendBatch = append(s.pendBatch, jb)
		s.waitingBatch++
	} else {
		s.pendInt = append(s.pendInt, jb)
		s.waitingInt++
	}
}

// popLocked removes and returns the next job to run — interactive
// strictly before batch — or nil when both lanes are empty. Caller
// holds s.mu.
func (s *Server) popLocked() *Record {
	if len(s.pendInt) > 0 {
		jb := s.pendInt[0]
		s.pendInt = s.pendInt[1:]
		s.waitingInt--
		return jb
	}
	if len(s.pendBatch) > 0 {
		jb := s.pendBatch[0]
		s.pendBatch = s.pendBatch[1:]
		s.waitingBatch--
		return jb
	}
	return nil
}

func (s *Server) updateQueueGaugesLocked() {
	s.met.queueDepth.Set(float64(s.waitingInt + s.waitingBatch))
	s.met.queueDepthInt.Set(float64(s.waitingInt))
	s.met.queueDepthBatch.Set(float64(s.waitingBatch))
}

// Start launches the worker pool. Idempotent per server (call once).
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for range s.wake {
		s.mu.Lock()
		if s.draining {
			// Lane contents (specs and any journals) are durable; leave
			// them queued on disk for the next process to resume.
			s.mu.Unlock()
			continue
		}
		jb := s.popLocked()
		if jb == nil {
			s.mu.Unlock()
			continue
		}
		s.updateQueueGaugesLocked()
		deadline, _ := jb.Spec.ParseDeadline() // syntax vetted at admission
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			// The deadline passed while the job sat queued. Fail it
			// terminally — failed.json records kind "deadline exceeded",
			// so no restart ever silently re-dispatches it — without
			// spending a worker on a sweep nobody is waiting for.
			s.mu.Unlock()
			s.met.deadlineTimeouts.Inc()
			s.finishJob(jb, runx.Newf(runx.KindTimeout, stageServer,
				"job %s missed its deadline %s before starting", jb.ID, deadline.Format(time.RFC3339)))
			continue
		}
		enqueued := s.Begin(jb)
		ctx, cancel := context.WithCancel(s.baseCtx)
		s.running[jb.ID] = cancel
		s.met.inflight.Set(float64(len(s.running)))
		s.mu.Unlock()

		// Queue-wait vs run-time split: the wait ends here, the run
		// starts here; both series carry the job's trace as exemplar.
		tc, traced := jb.TraceCtx()
		if !enqueued.IsZero() {
			s.met.queueWait.ObserveExemplar(time.Since(enqueued).Seconds(), tc.TraceID)
			if traced {
				_ = s.cfg.Frags.Append(obs.SpanFragment{
					Trace: tc.TraceID, Span: tc.Child().SpanID, Parent: tc.SpanID,
					Name:  "queue-wait " + jb.ID,
					Start: enqueued.UnixNano(), End: time.Now().UnixNano(),
					Attrs: map[string]string{"job": jb.ID, "class": jb.Spec.Class()},
				})
			}
		}
		started := time.Now()
		err := s.runJob(ctx, jb, deadline)
		cancel()
		s.met.jobRun.ObserveExemplar(time.Since(started).Seconds(), tc.TraceID)
		s.finishJob(jb, err)
	}
}

// runJob executes one job's sweep under its journal, writing
// result.json atomically on success. Resumable by construction: every
// completed cell is fsync'd to the journal before the next begins.
func (s *Server) runJob(ctx context.Context, jb *Record, deadline time.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = runx.FromPanic(r, "server.runJob")
		}
	}()
	// Thread the job id through the context so any structured log line
	// emitted under this sweep carries it, and rejoin the trace the
	// submission minted (persisted with the spec, so resume rejoins it
	// too) so every cell under this sweep records fragments.
	ctx = obs.WithJobID(ctx, jb.ID)
	if tc, ok := jb.TraceCtx(); ok {
		ctx = obs.WithTraceContext(ctx, tc)
		ctx = obs.WithFragments(ctx, s.cfg.Frags)
		var endJob func()
		ctx, endJob = obs.StartSpan(ctx, "job "+jb.ID, map[string]string{"job": jb.ID})
		defer endJob()
	}
	ws, cfg, err := jb.Spec.resolve()
	if err != nil {
		return err
	}
	timeout, err := parseDuration("timeout", jb.Spec.Timeout)
	if err != nil {
		return err
	}
	if timeout <= 0 {
		timeout = s.cfg.JobTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The absolute SLO deadline rides the same context the relative
	// timeout does — whichever expires first cancels the sweep — but a
	// deadline failure is re-labeled below with the deadline timestamp,
	// so a waiting client learns *which* instant the sweep missed.
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
		defer func() {
			if err != nil && runx.IsKind(err, runx.KindTimeout) && !time.Now().Before(deadline) {
				s.met.deadlineTimeouts.Inc()
				err = runx.Newf(runx.KindTimeout, stageServer,
					"job %s exceeded its deadline %s: %w", jb.ID, deadline.Format(time.RFC3339), err)
			}
		}()
	}
	backoff, err := parseDuration("backoff", jb.Spec.Backoff)
	if err != nil {
		return err
	}
	if backoff <= 0 {
		backoff = s.cfg.Backoff
	}
	retries := jb.Spec.Retries
	if retries <= 0 {
		retries = s.cfg.Retries
	}
	cellDelay, err := parseDuration("cell_delay", jb.Spec.CellDelay)
	if err != nil {
		return err
	}

	meta := experiments.MatrixMeta(ws, cfg)
	jpath := filepath.Join(s.Dir(jb.ID), "run.journal")
	var (
		jr    *superv.Journal
		prior *superv.State
	)
	if s.Exists(jpath) {
		jr, prior, err = superv.ResumeFS(s.cfg.FS, jpath, "deesimd", meta)
		if err != nil {
			if runx.IsKind(err, runx.KindUnavailable) {
				return err // disk full, not damage: park for resume, do not quarantine
			}
			qp, qerr := s.QuarantineJournal(jb.ID, jpath, err)
			if qerr != nil {
				return qerr
			}
			s.cfg.Logf("deesimd: job %s: journal unusable (%v), quarantined to %s, restarting sweep from scratch", jb.ID, err, qp)
			jr, prior = nil, nil
		}
	}
	if jr == nil {
		if jr, err = superv.CreateFS(s.cfg.FS, jpath, "deesimd", meta); err != nil {
			return err
		}
	}
	defer jr.Close()

	if prior != nil && len(prior.Done) > 0 {
		s.cfg.Logf("deesimd: job %s: resuming, %s", jb.ID, prior.Summary(jb.CellsTotal))
	}
	mcfg := experiments.MatrixConfig{
		Jobs:    s.cfg.CellJobs,
		Journal: jr,
		Prior:   prior,
		Budget:  s.cfg.Budget,
		Memo:    s.cfg.Memo,
		Retry: superv.RetryPolicy{
			Attempts: retries + 1,
			Backoff:  backoff,
		},
		OnRetry: func(key string, attempt int, delay string, err error) {
			s.cfg.Logf("deesimd: job %s: retrying %s (attempt %d after %s): %v", jb.ID, key, attempt, delay, err)
		},
		OnCell: func(key string, replayed bool) {
			s.CellDone(jb)
			if !replayed && cellDelay > 0 {
				t := time.NewTimer(cellDelay)
				select {
				case <-ctx.Done():
				case <-t.C:
				}
				t.Stop()
			}
		},
	}
	compute := func(ctx context.Context) ([]byte, error) {
		results, err := experiments.RunMatrixContext(ctx, ws, cfg, mcfg)
		if err != nil {
			return nil, err
		}
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return nil, runx.Newf(runx.KindUnknown, stageServer, "job %s: marshal results: %w", jb.ID, err)
		}
		return append(data, '\n'), nil
	}
	var data []byte
	if s.cfg.Memo != nil {
		// Whole-spec singleflight: a thundering herd of identical
		// submissions blocks on the first one's sweep and shares its
		// bytes — each job still writes (and acks) its own result.json,
		// so the per-job durability contract is unchanged.
		data, err = s.cfg.Memo.Do(ctx, experiments.SweepMemoKey(ws, cfg), compute)
	} else {
		data, err = compute(ctx)
	}
	if err != nil {
		return err
	}
	if err := durable.WriteFileAtomic(s.cfg.FS, s.ResultPath(jb.ID), data); err != nil {
		if durable.IsNoSpace(err) {
			return runx.Newf(runx.KindUnavailable, stageServer, "job %s: write result: %w", jb.ID, err)
		}
		return runx.Newf(runx.KindCorrupt, stageServer, "job %s: write result: %w", jb.ID, err)
	}
	return nil
}

// finishJob retires a job from the running set and records its
// outcome in the store (see Store.Finish for the terminal-state rules).
func (s *Server) finishJob(jb *Record, err error) {
	s.mu.Lock()
	delete(s.running, jb.ID)
	s.met.inflight.Set(float64(len(s.running)))
	s.mu.Unlock()
	s.Finish(jb, err)
}

// Submit admits a job under the class-aware SLO policy: an expired
// deadline is refused outright (KindTimeout), brownout and quota
// pressure shed with KindOverload (batch first — see brownout.go),
// draining and low-disk shed with KindUnavailable. Admitted specs are
// persisted durably before the caller learns the id. Used by the HTTP
// handler and directly by tests.
func (s *Server) Submit(sp Spec) (*JobStatus, error) {
	return s.SubmitCtx(context.Background(), sp)
}

// SubmitCtx is Submit carrying the caller's context, from which
// Store.Create settles the job's trace.
func (s *Server) SubmitCtx(ctx context.Context, sp Spec) (*JobStatus, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	class := sp.Class()
	deadline, _ := sp.ParseDeadline() // syntax vetted by Validate
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		s.met.deadlineTimeouts.Inc()
		return nil, runx.Newf(runx.KindTimeout, stageServer,
			"deadline %s already passed at submission", deadline.Format(time.RFC3339))
	}
	if err := s.LowDiskErr(); err != nil {
		// Brownout level 3: reads only. Status, results, and metrics
		// keep serving; every write sheds until a probe write succeeds.
		s.met.drainSheds.Inc()
		s.met.classShed(class)
		obs.RecordFlight("shed", "low disk: new job refused", map[string]string{"class": class})
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.drainSheds.Inc()
		s.met.classShed(class)
		obs.RecordFlight("shed", "draining: new job refused", map[string]string{"class": class})
		return nil, runx.Newf(runx.KindUnavailable, stageServer, "draining: not accepting new jobs")
	}
	level := s.brownoutLocked()
	s.noteBrownoutLocked(ctx, level)
	if class == PriorityBatch {
		if level >= BrownoutShedBatch {
			s.mu.Unlock()
			s.met.sheds.Inc()
			s.met.brownoutSheds.Inc()
			s.met.classShed(class)
			obs.RecordFlight("shed", "brownout: batch job refused", map[string]string{"class": class, "level": strconv.Itoa(level)})
			return nil, runx.Newf(runx.KindOverload, stageServer,
				"brownout level %d: shedding batch work (interactive queue %d/%d); retry after %s",
				level, s.waitingInt, s.cfg.QueueDepth, s.cfg.RetryAfter)
		}
		if s.waitingBatch >= s.cfg.BatchQueueDepth {
			s.mu.Unlock()
			s.met.sheds.Inc()
			s.met.classShed(class)
			obs.RecordFlight("shed", "batch queue full", map[string]string{"class": class})
			return nil, runx.Newf(runx.KindOverload, stageServer,
				"batch queue full (%d waiting); retry after %s", s.cfg.BatchQueueDepth, s.cfg.RetryAfter)
		}
	} else if s.waitingInt >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.met.sheds.Inc()
		s.met.brownoutSheds.Inc()
		s.met.classShed(class)
		obs.RecordFlight("shed", "interactive queue full", map[string]string{"class": class})
		return nil, runx.Newf(runx.KindOverload, stageServer,
			"brownout level %d: interactive queue full (%d waiting), deferring new work; retry after %s",
			BrownoutDeferAll, s.cfg.QueueDepth, s.cfg.RetryAfter)
	}
	s.reserveLocked(class, +1)
	s.mu.Unlock()

	jb, err := s.Create(ctx, sp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.reserveLocked(class, -1)
		return nil, err
	}
	if !s.wakeClosed {
		// The waiting slot was reserved at admission; only the lane
		// append happens here. Wake capacity was reserved too, so the
		// token send never blocks.
		if class == PriorityBatch {
			s.pendBatch = append(s.pendBatch, jb)
		} else {
			s.pendInt = append(s.pendInt, jb)
		}
		s.wake <- struct{}{}
	}
	// If admission closed between reserve and here, the job stays on
	// disk and the next process resumes it — accepted is accepted.
	s.met.accepted.Inc()
	return s.Snapshot(jb), nil
}

// reserveLocked moves a class's waiting count by delta (±1) and
// republishes the queue gauges. Caller holds s.mu.
func (s *Server) reserveLocked(class string, delta int) {
	if class == PriorityBatch {
		s.waitingBatch += delta
	} else {
		s.waitingInt += delta
	}
	s.updateQueueGaugesLocked()
}

// Draining reports whether drain has begun (readyz turns 503).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the server: admission closes (new submissions
// are shed with 503), running jobs get DrainGrace to finish, then
// their contexts are canceled — which journals their progress for the
// next start. Queued-but-unstarted jobs are left durably on disk.
// Returns once every worker has exited. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if !s.wakeClosed {
			close(s.wake)
			s.wakeClosed = true
		}
	}
	s.mu.Unlock()
	s.cfg.Logf("deesimd: draining: admission closed, waiting up to %s for running jobs", s.cfg.DrainGrace)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		s.cfg.Logf("deesimd: drain grace expired, canceling running jobs (progress stays journaled)")
		s.cancelRunning()
		<-done
	case <-ctx.Done():
		s.cfg.Logf("deesimd: drain aborted by caller, canceling running jobs")
		s.cancelRunning()
		<-done
	}
	s.baseCancel()
	s.logDrainSummary()
	return nil
}

func (s *Server) cancelRunning() {
	s.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(s.running))
	for _, c := range s.running {
		cancels = append(cancels, c)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

func (s *Server) logDrainSummary() {
	counts := map[string]int{}
	for _, js := range s.List() {
		counts[js.State]++
	}
	s.cfg.Logf("deesimd: drained: %d done, %d failed, %d interrupted, %d queued (interrupted/queued resume on restart)",
		counts[StateDone], counts[StateFailed], counts[StateInterrupted], counts[StateQueued])
}

// Close hard-stops the server: cancels everything and waits for the
// workers. For tests; production shutdown is Drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	if !s.wakeClosed {
		close(s.wake)
		s.wakeClosed = true
	}
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
}

// requeueForHeal sends a job whose terminal artifact was quarantined
// back through the run path. If the queue is closed or full the job
// parks as interrupted instead and the next process heals it — either
// way no state is lost. Reports whether an in-process re-run was
// scheduled.
func (s *Server) requeueForHeal(id string) bool {
	jb, ok := s.Get(id)
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	park := func(r *Record) { r.State = StateInterrupted }
	if s.wakeClosed || s.draining {
		s.update(jb, park)
		return false
	}
	select {
	case s.wake <- struct{}{}:
		s.update(jb, func(r *Record) {
			r.State, r.Resumed, r.CellsDone = StateQueued, true, 0
			r.ErrText, r.ErrKind = "", ""
		})
		s.pushLocked(jb)
		s.updateQueueGaugesLocked()
		return true
	default:
		s.update(jb, park)
		return false
	}
}

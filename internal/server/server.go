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

// Server is the deesimd core: admission lanes and brownout over the
// shared job runtime (Runtime: durable state, runners, drain), plus the
// leased-cell endpoint. Create with New, start runners with Start,
// serve Handler() over HTTP, and stop with Drain (graceful) or Close
// (hard, for tests).
type Server struct {
	*Runtime // jobs/<id>/ records, runners, drain, status and the HTTP envelope

	cfg Config
	met *serverMetrics

	cellSlots   chan struct{}      // leased-cell admission (capacity CellSlots)
	cellsActive int64              // leased cells executing right now (atomic)
	inputs      experiments.Inputs // prepared inputs, reused across leased cells

	mu           sync.Mutex
	waitingInt   int       // queued interactive jobs, against QueueDepth
	waitingBatch int       // queued batch jobs, against BatchQueueDepth
	pendInt      []*Record // interactive lane, FIFO
	pendBatch    []*Record // batch lane, FIFO; drained only when pendInt is empty
	brownout     int       // last published brownout level (gauge shadow)
}

const stageServer = "server"

// New builds a server over StateDir, recovering any jobs a previous
// process left behind: completed jobs are indexed for result serving,
// incomplete ones re-queued for resumption (their journals replay
// finished cells). It does not start workers; call Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		met:       newServerMetrics(cfg.Metrics),
		cellSlots: make(chan struct{}, cfg.CellSlots),
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
		return nil, err
	}
	s.Runtime = NewRuntime(store, RuntimeConfig{
		Runners: cfg.Workers, DrainGrace: cfg.DrainGrace, Timeout: cfg.JobTimeout,
		Journal: "run.journal", Format: superv.JournalFormat,
		Next: s.pop, Run: s.runSweep,
		Metrics: RuntimeMetrics{
			DeadlineTimeouts: s.met.deadlineTimeouts, Inflight: s.met.inflight,
			QueueWait: s.met.queueWait, Run: s.met.jobRun,
		},
	})
	for _, jb := range pending {
		jb.Enqueued = time.Now()
		s.pushLocked(jb)
		s.met.jobsResumed.Inc()
		s.Wake()
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

// pop removes and returns the next job to run — interactive strictly
// before batch — or nil when both lanes are empty.
func (s *Server) pop() *Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var jb *Record
	switch {
	case len(s.pendInt) > 0:
		jb, s.pendInt = s.pendInt[0], s.pendInt[1:]
		s.waitingInt--
	case len(s.pendBatch) > 0:
		jb, s.pendBatch = s.pendBatch[0], s.pendBatch[1:]
		s.waitingBatch--
	default:
		return nil
	}
	s.updateQueueGaugesLocked()
	return jb
}

func (s *Server) updateQueueGaugesLocked() {
	s.met.queueDepth.Set(float64(s.waitingInt + s.waitingBatch))
	s.met.queueDepthInt.Set(float64(s.waitingInt))
	s.met.queueDepthBatch.Set(float64(s.waitingBatch))
}

// runSweep is deesimd's sweep body: the job's matrix through
// RunMatrixContext under its journal, collapsed onto the whole-spec
// memo when one is configured.
func (s *Server) runSweep(ctx context.Context, job *Job) ([]byte, error) {
	cellDelay, err := parseDuration("cell_delay", job.Spec.CellDelay)
	if err != nil {
		return nil, err
	}
	mcfg := experiments.MatrixConfig{
		Jobs:    s.cfg.CellJobs,
		Journal: job.Journal,
		Prior:   job.Prior,
		Budget:  s.cfg.Budget,
		Memo:    s.cfg.Memo,
		Retry:   job.Spec.RetryPolicy(s.cfg.Retries, s.cfg.Backoff),
		OnRetry: func(key string, attempt int, delay string, err error) {
			s.cfg.Logf("deesimd: job %s: retrying %s (attempt %d after %s): %v", job.ID, key, attempt, delay, err)
		},
		OnCell: func(key string, replayed bool) {
			s.CellDone(job.Record)
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
		results, err := experiments.RunMatrixContext(ctx, job.Workloads, job.Config, mcfg)
		if err != nil {
			return nil, err
		}
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return nil, runx.Newf(runx.KindUnknown, stageServer, "job %s: marshal results: %w", job.ID, err)
		}
		return append(data, '\n'), nil
	}
	if s.cfg.Memo == nil {
		return compute(ctx)
	}
	// Whole-spec singleflight: a thundering herd of identical
	// submissions blocks on the first one's sweep and shares its bytes —
	// each job still writes (and acks) its own result.json, so the
	// per-job durability contract is unchanged. A warm repeat is served
	// here without touching the cells, so its journal gets no cell
	// records at all.
	return s.cfg.Memo.Do(ctx, experiments.SweepMemoKey(job.Workloads, job.Config), compute)
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
	if s.Draining() {
		s.met.drainSheds.Inc()
		s.met.classShed(class)
		obs.RecordFlight("shed", "draining: new job refused", map[string]string{"class": class})
		return nil, runx.Newf(runx.KindUnavailable, stageServer, "draining: not accepting new jobs")
	}
	s.mu.Lock()
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
	if err != nil {
		s.reserveLocked(class, -1)
		s.mu.Unlock()
		return nil, err
	}
	// The waiting slot was reserved at admission; only the lane append
	// happens here. If drain began meanwhile no runner takes the job: it
	// stays on disk and the next process resumes it — accepted is
	// accepted. The snapshot is taken before a runner can start the job,
	// so the caller always sees it queued.
	js := s.Snapshot(jb)
	if class == PriorityBatch {
		s.pendBatch = append(s.pendBatch, jb)
	} else {
		s.pendInt = append(s.pendInt, jb)
	}
	s.mu.Unlock()
	s.Wake()
	s.met.accepted.Inc()
	return js, nil
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

// requeueForHeal sends a job whose terminal artifact was quarantined
// back through the run path. Once drain has begun the job parks as
// interrupted instead and the next process heals it — either way no
// state is lost. Reports whether an in-process re-run was scheduled.
func (s *Server) requeueForHeal(id string) bool {
	jb, ok := s.Get(id)
	if !ok {
		return false
	}
	if s.Draining() {
		s.update(jb, func(r *Record) { r.State = StateInterrupted })
		return false
	}
	s.update(jb, func(r *Record) {
		r.State, r.Resumed, r.CellsDone = StateQueued, true, 0
		r.ErrText, r.ErrKind = "", ""
	})
	s.mu.Lock()
	s.pushLocked(jb)
	s.updateQueueGaugesLocked()
	s.mu.Unlock()
	s.Wake()
	return true
}

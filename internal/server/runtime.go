package server

import (
	"context"
	"path/filepath"
	"sync"
	"time"

	"deesim/internal/bench"
	"deesim/internal/durable"
	"deesim/internal/experiments"
	"deesim/internal/obs"
	"deesim/internal/runx"
)

// Runtime runs the records a Store holds, for both sweep daemons: a
// pool of runners that take the daemon's next queued record, the
// per-record context (job id, trace, root span, timeout, deadline),
// the journal open, the result write, and the drain/close protocol.
// deesimd (Server) and deesim-coord (coord.Coordinator) each embed one
// over their Store. What differs between them stays in the daemon: the
// queue policy (class lanes and brownout, or FIFO admission), handed
// in as RuntimeConfig.Next, and the sweep body, handed in as Run.
type Runtime struct {
	*Store

	cfg        RuntimeConfig
	baseCtx    context.Context // parent of every record's run context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	wake     *sync.Cond // signaled when the daemon queues a record
	queued   int        // wakes not yet taken: one per record the daemon queued
	draining bool
	running  int // records executing now

	wg sync.WaitGroup
}

// RuntimeConfig is what a daemon hands its Runtime.
type RuntimeConfig struct {
	// Runners is how many records run concurrently (minimum 1).
	Runners int
	// DrainGrace is how long Drain lets running records finish before
	// canceling them.
	DrainGrace time.Duration
	// Timeout caps any record whose spec sets no timeout (0 = none).
	Timeout time.Duration
	// Journal is the file name of a record's journal in its directory,
	// and Format the journal's flavour.
	Journal string
	Format  *durable.JournalFormat
	// Next removes and returns the daemon's next record to run, or nil
	// when its queue is empty. The daemon calls Wake once for every
	// record it queues, recovered ones included.
	Next func() *Record
	// Run is the daemon's sweep body. It returns the result bytes the
	// runtime writes to result.json.
	Run     func(ctx context.Context, job *Job) ([]byte, error)
	Metrics RuntimeMetrics
}

// RuntimeMetrics are the daemon's own instruments the runtime bumps.
type RuntimeMetrics struct {
	// DeadlineTimeouts counts records failed against their absolute
	// deadline.
	DeadlineTimeouts *obs.Counter
	// The rest may be nil: journals resumed, records executing, and the
	// queue-wait and run-time split (trace ids ride as exemplars).
	Resumed        *obs.Counter
	Inflight       *obs.Gauge
	QueueWait, Run *obs.Histogram
}

// Job is one running record as the runtime hands it to the sweep body:
// the record's resolved matrix and its open journal.
type Job struct {
	*Record
	Workloads []bench.Workload
	Config    experiments.Config
	Journal   *durable.Journal
	// Prior is the journal's replayed state, nil for a fresh journal.
	Prior *durable.State
}

// NewRuntime builds the runtime over store. It starts no runners; call
// Start.
func NewRuntime(store *Store, cfg RuntimeConfig) *Runtime {
	if cfg.Runners < 1 {
		cfg.Runners = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Runtime{Store: store, cfg: cfg, baseCtx: ctx, baseCancel: cancel}
	rt.wake = sync.NewCond(&rt.mu)
	return rt
}

// Start launches the runners. Call once.
func (rt *Runtime) Start() {
	for i := 0; i < rt.cfg.Runners; i++ {
		rt.wg.Add(1)
		go rt.runner()
	}
}

// Wake tells a runner the daemon queued a record. After drain has
// begun no runner takes it: the record stays queued on disk and the
// next process resumes it.
func (rt *Runtime) Wake() {
	rt.mu.Lock()
	rt.queued++
	rt.wake.Signal()
	rt.mu.Unlock()
}

func (rt *Runtime) runner() {
	defer rt.wg.Done()
	for rt.take() {
		if jb := rt.cfg.Next(); jb != nil {
			rt.step(jb)
		}
	}
}

// take waits for a wake and consumes it, or reports false once drain
// has begun.
func (rt *Runtime) take() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for rt.queued == 0 && !rt.draining {
		rt.wake.Wait()
	}
	if rt.draining {
		return false
	}
	rt.queued--
	return true
}

// step runs one record from queue to terminal state: Begin, the
// queue-wait span, the run under panic isolation, Finish.
func (rt *Runtime) step(jb *Record) {
	m := rt.cfg.Metrics
	deadline, _ := jb.Spec.ParseDeadline() // syntax vetted at admission
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		// The deadline passed while the record sat queued. Fail it
		// terminally — failed.json records kind "deadline exceeded", so
		// no restart ever silently re-dispatches it — without spending a
		// runner on a sweep nobody is waiting for.
		m.DeadlineTimeouts.Inc()
		rt.Finish(jb, runx.Newf(runx.KindTimeout, rt.Store.cfg.Stage,
			"%s %s missed its deadline %s before starting", rt.Store.cfg.Noun, jb.ID, deadline.Format(time.RFC3339)))
		return
	}
	if !rt.track(+1) {
		return // drain began after the pop: the record stays queued on disk
	}
	enqueued := rt.Begin(jb)
	tc, traced := jb.TraceCtx()
	if !enqueued.IsZero() {
		if m.QueueWait != nil {
			m.QueueWait.ObserveExemplar(time.Since(enqueued).Seconds(), tc.TraceID)
		}
		if traced {
			_ = rt.Store.cfg.Frags.Append(obs.SpanFragment{
				Trace: tc.TraceID, Span: tc.Child().SpanID, Parent: tc.SpanID,
				Name:  "queue-wait " + jb.ID,
				Start: enqueued.UnixNano(), End: time.Now().UnixNano(),
				Attrs: map[string]string{rt.Store.cfg.Noun: jb.ID, "class": jb.Spec.Class()},
			})
		}
	}
	started := time.Now()
	err := rt.run(jb, deadline)
	if m.Run != nil {
		m.Run.ObserveExemplar(time.Since(started).Seconds(), tc.TraceID)
	}
	rt.track(-1)
	rt.Finish(jb, err)
}

// track moves the running count by delta and republishes the inflight
// gauge. A record may not start once drain has begun: track(+1) then
// reports false.
func (rt *Runtime) track(delta int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if delta > 0 && rt.draining {
		return false
	}
	rt.running += delta
	if rt.cfg.Metrics.Inflight != nil {
		rt.cfg.Metrics.Inflight.Set(float64(rt.running))
	}
	return true
}

// run executes one record under its own context and journal, and
// writes result.json atomically on success. It is resumable by
// construction: the journal records every finished cell before the
// next begins.
func (rt *Runtime) run(jb *Record, deadline time.Time) (err error) {
	stage, noun := rt.Store.cfg.Stage, rt.Store.cfg.Noun
	defer func() {
		if r := recover(); r != nil {
			err = runx.FromPanic(r, stage+".run")
		}
	}()
	// Thread the id through the context so any structured log line
	// under this sweep carries it, and rejoin the trace the submission
	// minted (persisted with the spec, so resume rejoins it too): the
	// "<noun> <id>" span is the root every cell or lease nests under.
	ctx, cancel := context.WithCancel(rt.baseCtx)
	defer cancel()
	ctx = obs.WithJobID(ctx, jb.ID)
	if tc, ok := jb.TraceCtx(); ok {
		ctx = obs.WithTraceContext(ctx, tc)
		ctx = obs.WithFragments(ctx, rt.Store.cfg.Frags)
		var end func()
		ctx, end = obs.StartSpan(ctx, noun+" "+jb.ID, map[string]string{noun: jb.ID})
		defer end()
	}
	ws, cfg, err := jb.Spec.Resolve()
	if err != nil {
		return err
	}
	timeout, err := parseDuration("timeout", jb.Spec.Timeout)
	if err != nil {
		return err
	}
	if timeout <= 0 {
		timeout = rt.cfg.Timeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The absolute SLO deadline rides the same context the relative
	// timeout does — whichever expires first cancels the sweep — but a
	// deadline failure is re-labeled with the deadline timestamp, so a
	// waiting client learns *which* instant the sweep missed.
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
		defer func() {
			if err != nil && runx.IsKind(err, runx.KindTimeout) && !time.Now().Before(deadline) {
				rt.cfg.Metrics.DeadlineTimeouts.Inc()
				err = runx.Newf(runx.KindTimeout, stage,
					"%s %s exceeded its deadline %s: %w", noun, jb.ID, deadline.Format(time.RFC3339), err)
			}
		}()
	}
	jr, prior, err := rt.openJournal(jb, experiments.MatrixMeta(ws, cfg))
	if err != nil {
		return err
	}
	defer jr.Close()
	data, err := rt.cfg.Run(ctx, &Job{Record: jb, Workloads: ws, Config: cfg, Journal: jr, Prior: prior})
	if err != nil {
		return err
	}
	if err := durable.WriteFileAtomic(rt.Store.cfg.FS, rt.ResultPath(jb.ID), data); err != nil {
		if durable.IsNoSpace(err) {
			return runx.Newf(runx.KindUnavailable, stage, "%s %s: write result: %w", noun, jb.ID, err)
		}
		return runx.Newf(runx.KindCorrupt, stage, "%s %s: write result: %w", noun, jb.ID, err)
	}
	return nil
}

// openJournal opens a record's journal: it resumes the one a previous
// run left behind, or creates a fresh one. A journal that cannot be
// resumed (corrupt record, torn header, recorded under different
// settings) carries no trustworthy progress and the sweep is
// deterministic, so it is quarantined — the evidence kept, never
// deleted — and the run restarts from scratch. A full disk is not
// damage: its KindUnavailable error parks the record for resume.
func (rt *Runtime) openJournal(jb *Record, meta map[string]string) (*durable.Journal, *durable.State, error) {
	fsys, noun, tool := rt.Store.cfg.FS, rt.Store.cfg.Noun, rt.Store.cfg.Daemon
	path := filepath.Join(rt.Dir(jb.ID), rt.cfg.Journal)
	if rt.Exists(path) {
		jr, prior, err := rt.cfg.Format.Resume(fsys, path, tool, meta)
		if err == nil {
			if rt.cfg.Metrics.Resumed != nil {
				rt.cfg.Metrics.Resumed.Inc()
			}
			rt.logf("%s %s: resuming, %s", noun, jb.ID, rt.cfg.Format.Summary(prior, jb.CellsTotal))
			return jr, prior, nil
		}
		if runx.IsKind(err, runx.KindUnavailable) {
			return nil, nil, err
		}
		qp, qerr := durable.Quarantine(fsys, path)
		if qerr != nil {
			return nil, nil, runx.Newf(runx.KindCorrupt, rt.Store.cfg.Stage,
				"%s %s: journal unusable (%v) and quarantine failed: %v", noun, jb.ID, err, qerr)
		}
		rt.Store.cfg.Counters.Quarantined.Inc()
		rt.Store.cfg.Counters.Healed.Inc()
		durable.NoteHealed()
		rt.logf("%s %s: journal unusable (%v), quarantined to %s, restarting from scratch", noun, jb.ID, err, qp)
	}
	jr, err := rt.cfg.Format.Create(fsys, path, tool, meta)
	return jr, nil, err
}

// Draining reports whether drain has begun (readyz turns 503).
func (rt *Runtime) Draining() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.draining
}

// stop closes admission to the runners: none takes another record.
func (rt *Runtime) stop() {
	rt.mu.Lock()
	rt.draining = true
	rt.wake.Broadcast()
	rt.mu.Unlock()
}

// Drain gracefully stops the runtime: runners take no new record,
// running records get DrainGrace to finish, then their contexts are
// canceled — which leaves their progress journaled for the next start.
// Queued records stay durably on disk. It returns once every runner
// has exited. The daemon sheds new submissions once Draining reports
// true. Idempotent.
func (rt *Runtime) Drain(ctx context.Context) error {
	rt.stop()
	noun := rt.Store.cfg.Noun
	rt.logf("draining: admission closed, waiting up to %s for running %ss", rt.cfg.DrainGrace, noun)
	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()
	grace := time.NewTimer(rt.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		rt.logf("drain grace expired, canceling running %ss (progress stays journaled)", noun)
	case <-ctx.Done():
		rt.logf("drain aborted by caller, canceling running %ss", noun)
	}
	// Every run context descends from baseCtx, so this cancels whatever
	// still runs (and is a no-op when the runners already exited).
	rt.baseCancel()
	<-done
	counts := map[string]int{}
	for _, js := range rt.List() {
		counts[js.State]++
	}
	rt.logf("drained: %d done, %d failed, %d interrupted, %d queued (interrupted/queued resume on restart)",
		counts[StateDone], counts[StateFailed], counts[StateInterrupted], counts[StateQueued])
	return nil
}

// Close hard-stops the runtime: it cancels everything and waits for
// the runners. For tests; production shutdown is Drain.
func (rt *Runtime) Close() {
	rt.stop()
	rt.baseCancel()
	rt.wg.Wait()
}

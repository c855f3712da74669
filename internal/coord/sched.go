package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"deesim/internal/experiments"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/server"
	"deesim/internal/superv"
)

const stageSched = "coord.scheduler"

// cellState is one not-yet-durable cell in the scheduler: how many
// lease grants it has consumed and when it may next be dispatched
// (retry backoff).
type cellState struct {
	task      experiments.MatrixTask
	key       string
	attempts  int
	notBefore time.Time
}

// lease is one outstanding grant: a cell leased to a worker until a
// deadline. Cancel aborts the in-flight RPC when the lease is revoked
// or a sibling wins.
type lease struct {
	id          string
	key         string
	workerID    string
	attempt     int
	speculative bool
	started     time.Time
	expires     time.Time
	cancel      context.CancelFunc
}

// completion is a dispatch goroutine's report back to the event loop.
type completion struct {
	leaseID  string
	key      string
	workerID string
	payload  json.RawMessage
	err      error
	took     time.Duration
}

// scheduler runs one sweep's lease state machine on a single event
// loop: dispatch pending cells to live workers, expire stale leases,
// fold in completions (first durable wins), and speculate on
// stragglers. All scheduler state is confined to the run goroutine;
// only the journal, the metrics, and the coordinator registry hops are
// shared.
type scheduler struct {
	c        *Coordinator
	sw       *server.Record
	jr       *Journal
	retry    superv.RetryPolicy
	max      int       // lease grants per cell before the sweep fails
	deadline time.Time // sweep's absolute SLO deadline; zero = none

	tasks   []experiments.MatrixTask
	pending []*cellState
	leases  map[string]*lease
	byKey   map[string]int // active leases per key
	done    map[string]json.RawMessage

	events    chan completion
	loopCtx   context.Context
	stopLoop  context.CancelFunc
	leaseSeq  int
	durations []time.Duration // completed-cell latencies, for stragglers
	exhausted error           // a cell spent its lease budget; sweep fails

	// memo/memoKeys, when the coordinator has a result cache, record
	// every fleet-computed payload back into it (keyed by the cell's
	// canonical memo key) so later sweeps skip the cell entirely.
	memo     *memo.Memo
	memoKeys map[string]string
}

func newScheduler(c *Coordinator, sw *server.Record, tasks []experiments.MatrixTask, jr *Journal, prior *State) *scheduler {
	retries := sw.Spec.Retries
	if retries <= 0 {
		retries = c.cfg.CellRetries
	}
	backoff := c.cfg.Backoff
	if d, err := parseSpecDuration("backoff", sw.Spec.Backoff); err == nil && d > 0 {
		backoff = d
	}
	s := &scheduler{
		c:      c,
		sw:     sw,
		jr:     jr,
		retry:  superv.RetryPolicy{Attempts: retries + 1, Backoff: backoff},
		max:    retries + 1,
		tasks:  tasks,
		leases: make(map[string]*lease),
		byKey:  make(map[string]int),
		done:   make(map[string]json.RawMessage),
		events: make(chan completion),
	}
	if dl, err := sw.Spec.ParseDeadline(); err == nil {
		s.deadline = dl
	}
	if prior != nil {
		for k, v := range prior.Done {
			s.done[k] = v
		}
	}
	for _, t := range tasks {
		key := t.Key()
		if _, ok := s.done[key]; ok {
			// Journal-replayed cell: already durable; count it for the
			// status API without re-dispatching.
			s.c.CellDone(sw)
			continue
		}
		s.pending = append(s.pending, &cellState{task: t, key: key})
	}
	return s
}

// run drives the sweep to completion and returns the full key→payload
// map, or the typed error that sank it. Cancellation (drain, SIGKILL's
// survivable sibling SIGTERM, job timeout) returns the context's typed
// error; everything granted is journaled, so the next run resumes.
func (s *scheduler) run(ctx context.Context) (map[string]json.RawMessage, error) {
	s.loopCtx, s.stopLoop = context.WithCancel(ctx)
	defer s.stopLoop()
	defer s.cancelAllLeases()

	tick := s.tickEvery()
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	for len(s.done) < len(s.tasks) {
		s.expireLeases()
		if s.exhausted != nil {
			return nil, s.exhausted
		}
		if err := s.dispatch(); err != nil {
			return nil, err
		}
		s.speculate()
		s.c.met.leasesActive.Set(float64(len(s.leases)))
		s.c.met.pendingCells.Set(float64(len(s.pending)))
		select {
		case <-ctx.Done():
			return nil, runx.CtxErr(ctx, stageSched)
		case <-ticker.C:
		case ev := <-s.events:
			if err := s.complete(ev); err != nil {
				return nil, err
			}
		}
	}
	s.c.met.leasesActive.Set(0)
	s.c.met.pendingCells.Set(0)
	return s.done, nil
}

// tickEvery picks the expiry-scan cadence: fast enough to catch lease
// expiry promptly relative to the TTL and heartbeat windows, bounded
// so tiny test TTLs do not spin the loop.
func (s *scheduler) tickEvery() time.Duration {
	t := s.c.cfg.LeaseTTL
	if s.c.cfg.HeartbeatTimeout < t {
		t = s.c.cfg.HeartbeatTimeout
	}
	t /= 4
	if t < 10*time.Millisecond {
		t = 10 * time.Millisecond
	}
	if t > time.Second {
		t = time.Second
	}
	return t
}

// dispatch grants leases for every pending cell a live worker can
// take. Grant order is deterministic (pending FIFO, workers by fewest
// outstanding leases then id); the durability order is the contract:
// the assign record is fsync'd before the RPC leaves.
func (s *scheduler) dispatch() error {
	if len(s.pending) == 0 {
		return nil
	}
	now := s.c.cfg.now()
	workers := s.eligibleWorkers()
	var rest []*cellState
	for _, cell := range s.pending {
		if cell.notBefore.After(now) || len(workers) == 0 {
			rest = append(rest, cell)
			continue
		}
		w := workers[0]
		cell.attempts++
		if err := s.grant(cell.task, cell.key, w, cell.attempts, false); err != nil {
			return err
		}
		w.leases++
		avail := workers[:0]
		for _, ww := range workers {
			if ww.leases < ww.slots {
				avail = append(avail, ww)
			}
		}
		workers = s.reorder(avail)
	}
	s.pending = rest
	return nil
}

// eligibleWorkers snapshots live, non-draining workers with free lease
// capacity, least-loaded first.
func (s *scheduler) eligibleWorkers() []*workerSnap {
	all := s.c.sweepWorkers()
	out := all[:0]
	for _, w := range all {
		if w.lost || w.state == server.WorkerDraining {
			continue
		}
		if w.leases >= w.slots {
			continue
		}
		out = append(out, w)
	}
	return s.reorder(out)
}

func (s *scheduler) reorder(ws []*workerSnap) []*workerSnap {
	sort.SliceStable(ws, func(i, j int) bool {
		if ws[i].leases != ws[j].leases {
			return ws[i].leases < ws[j].leases
		}
		return ws[i].id < ws[j].id
	})
	return ws
}

// grant journals an assignment, registers the lease, and launches the
// dispatch RPC.
func (s *scheduler) grant(task experiments.MatrixTask, key string, w *workerSnap, attempt int, speculative bool) error {
	s.leaseSeq++
	id := fmt.Sprintf("%s-l%05d", s.sw.ID, s.leaseSeq)
	now := s.c.cfg.now()
	if err := s.jr.Append(Record{
		Kind: KindAssign, Key: key, Worker: w.id, Lease: id,
		Attempt: attempt, Speculative: speculative,
	}); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(s.loopCtx)
	l := &lease{
		id: id, key: key, workerID: w.id, attempt: attempt,
		speculative: speculative, started: now,
		expires: now.Add(s.c.cfg.LeaseTTL), cancel: cancel,
	}
	s.leases[id] = l
	s.byKey[key]++
	s.c.adjustLeases(w.id, +1)
	s.c.met.leasesGranted.Inc()
	wc := w.client
	// The dispatch span is the coordinator-clock record of this lease
	// attempt; its child traceparent travels in the request body so the
	// worker's cell span nests under this exact attempt, and the trace
	// merge pairs the two spans by lease id to estimate clock skew.
	sctx, endSpan := obs.StartSpan(ctx, "lease "+key, map[string]string{
		"lease": id, "worker": w.id, "attempt": strconv.Itoa(attempt),
	})
	req := server.CellRequest{Spec: s.sw.Spec, Task: task, Lease: id}
	if tc, ok := obs.TraceContextFrom(sctx); ok && tc.Sampled {
		req.Traceparent = tc.Traceparent()
	}
	go func() {
		start := time.Now()
		payload, err := wc.RunCell(sctx, req)
		endSpan()
		ev := completion{leaseID: id, key: key, workerID: w.id, payload: payload, err: err, took: time.Since(start)}
		select {
		case s.events <- ev:
		case <-s.loopCtx.Done():
		}
	}()
	return nil
}

// expireLeases revokes leases past their TTL or held by a worker whose
// heartbeat went stale — the crash/partition/stall path. The cell goes
// back to pending (through retry backoff) unless a sibling lease is
// still working on it.
func (s *scheduler) expireLeases() {
	now := s.c.cfg.now()
	stale := make(map[string]bool)
	for _, w := range s.c.sweepWorkers() {
		if w.lost {
			stale[w.id] = true
		}
	}
	for id, l := range s.leases {
		reason := ""
		switch {
		case stale[l.workerID]:
			reason = "worker heartbeat lost"
		case now.After(l.expires):
			reason = "lease TTL exceeded"
		default:
			continue
		}
		s.dropLease(l)
		s.c.met.leaseExpiries.Inc()
		obs.RecordFlight("lease-expire", l.key, map[string]string{
			"lease": id, "worker": l.workerID, "reason": reason, "sweep": s.sw.ID,
		})
		_ = s.jr.Append(Record{
			Kind: KindExpire, Key: l.key, Worker: l.workerID, Lease: id,
			Attempt: l.attempt, Reason: reason,
		})
		s.c.cfg.Logf("deesim-coord: sweep %s: lease %s (%s on %s) expired: %s", s.sw.ID, id, l.key, l.workerID, reason)
		s.requeue(l, runx.Newf(runx.KindUnavailable, stageSched, "cell %s: %s", l.key, reason))
	}
}

// dropLease removes a lease from the books and aborts its RPC.
func (s *scheduler) dropLease(l *lease) {
	l.cancel()
	delete(s.leases, l.id)
	if s.byKey[l.key]--; s.byKey[l.key] <= 0 {
		delete(s.byKey, l.key)
	}
	s.c.adjustLeases(l.workerID, -1)
}

// requeue returns a cell to the pending queue after an expiry or a
// retryable failure — unless the cell is already done, a sibling lease
// is still running it, or its attempt budget is spent (recorded as
// exhausted; the sweep fails when complete() or dispatch() sees it).
func (s *scheduler) requeue(l *lease, cause error) {
	if _, ok := s.done[l.key]; ok || s.byKey[l.key] > 0 {
		return
	}
	if l.attempt >= s.max {
		// Attempt budget spent: park the error; the event loop surfaces it
		// on the next dispatch pass via exhausted.
		s.exhausted = runx.Annotate(cause, fmt.Sprintf("cell %s failed after %d lease(s)", l.key, l.attempt))
		return
	}
	if !s.deadline.IsZero() && !s.c.cfg.now().Before(s.deadline) {
		// The sweep's absolute deadline passed: a re-dispatch could only
		// deliver a result nobody is waiting for. Fail typed KindTimeout —
		// never silently re-dispatch past the deadline.
		s.c.met.deadlineTimeouts.Inc()
		s.exhausted = runx.Newf(runx.KindTimeout, stageSched,
			"sweep deadline %s passed; cell %s will not be re-dispatched: %v",
			s.deadline.Format(time.RFC3339), l.key, cause)
		return
	}
	if !s.c.cfg.Budget.Allow("coord") {
		// The shared retry budget is exhausted: re-dispatching now would
		// amplify an overload the budget exists to contain. Treated like
		// attempt exhaustion — the sweep fails with a typed error.
		s.c.met.budgetDenied.Inc()
		s.exhausted = runx.Newf(runx.KindUnavailable, stageSched,
			"retry budget exhausted; cell %s will not be re-dispatched: %v", l.key, cause)
		return
	}
	delay := s.retry.Delay(l.key, l.attempt+1)
	s.pending = append(s.pending, &cellState{
		task: s.taskFor(l.key), key: l.key,
		attempts:  l.attempt,
		notBefore: s.c.cfg.now().Add(delay),
	})
	s.c.met.redispatches.Inc()
	obs.RecordFlight("redispatch", l.key, map[string]string{
		"sweep": s.sw.ID, "attempt": strconv.Itoa(l.attempt), "cause": cause.Error(),
	})
}

func (s *scheduler) taskFor(key string) experiments.MatrixTask {
	for _, t := range s.tasks {
		if t.Key() == key {
			return t
		}
	}
	return experiments.MatrixTask{}
}

// complete folds one dispatch outcome into the state machine.
func (s *scheduler) complete(ev completion) error {
	l, active := s.leases[ev.leaseID]
	if active {
		s.dropLease(l)
	}
	if ev.err == nil {
		return s.completeOK(ev, l, active)
	}
	// Failure path. A result for an already-done key lost a race its
	// sibling won; a revoked lease's failure was already handled as an
	// expiry. Both are non-events.
	if _, ok := s.done[ev.key]; ok || !active {
		return nil
	}
	_ = s.jr.Append(Record{
		Kind: KindFail, Key: ev.key, Worker: ev.workerID, Lease: ev.leaseID,
		Attempt: l.attempt, Error: ev.err.Error(), ErrKind: errKindName(ev.err),
		Retryable: runx.Retryable(ev.err),
	})
	if !runx.Retryable(ev.err) {
		// Deterministic failure: re-dispatching would fail identically on
		// every worker. Fail the sweep with the worker's typed error.
		s.c.met.cellsFailed.Inc()
		return runx.Annotate(ev.err, "cell "+ev.key)
	}
	s.c.cfg.Logf("deesim-coord: sweep %s: cell %s attempt %d on %s failed (%v), re-dispatching", s.sw.ID, ev.key, l.attempt, ev.workerID, ev.err)
	s.requeue(l, ev.err)
	return nil
}

// completeOK applies the duplicate-resolution rule: the first durable
// completion wins; identical duplicates are discarded with a counter;
// conflicting duplicates poison the sweep with a typed corruption
// error, because two byte-different results for one deterministic cell
// mean a worker (or the network) is lying.
func (s *scheduler) completeOK(ev completion, l *lease, active bool) error {
	if prev, ok := s.done[ev.key]; ok {
		if bytes.Equal(normJSON(prev), normJSON(ev.payload)) {
			s.c.met.dupDiscards.Inc()
			s.c.cfg.Logf("deesim-coord: sweep %s: duplicate completion for %s from %s discarded (identical)", s.sw.ID, ev.key, ev.workerID)
			return nil
		}
		s.c.met.dupConflicts.Inc()
		return runx.Newf(runx.KindCorrupt, stageSched,
			"cell %s: conflicting duplicate completions (durable winner from earlier lease, %d-byte divergent copy from %s)",
			ev.key, len(ev.payload), ev.workerID)
	}
	if err := s.jr.Append(Record{
		Kind: KindDone, Key: ev.key, Worker: ev.workerID, Lease: ev.leaseID, Result: ev.payload,
	}); err != nil {
		return err
	}
	s.done[ev.key] = ev.payload
	if s.memo != nil {
		if mk, ok := s.memoKeys[ev.key]; ok {
			// Best-effort: a failed cache write costs future sweeps a
			// recompute, never this sweep its result.
			_ = s.memo.Put(mk, ev.payload)
		}
	}
	s.c.met.cellsDone.Inc()
	s.c.CellDone(s.sw)
	s.durations = append(s.durations, ev.took)
	if active && l.speculative {
		s.c.met.specWins.Inc()
	}
	// Abort sibling leases for this key (the speculation race is over);
	// their completions resolve through the duplicate path above.
	for _, sib := range s.leases {
		if sib.key == ev.key {
			s.dropLease(sib)
		}
	}
	return nil
}

// speculate is straggler mitigation — disjoint eager execution applied
// to the sweep itself: once nothing is pending, the slowest tail
// leases get a speculative duplicate on another idle worker, and the
// first durable completion wins exactly as any duplicate does.
func (s *scheduler) speculate() {
	if s.c.cfg.StragglerFactor <= 0 || len(s.pending) > 0 || len(s.leases) == 0 || len(s.durations) < 3 {
		return
	}
	med := medianDuration(s.durations)
	threshold := time.Duration(float64(med) * s.c.cfg.StragglerFactor)
	if threshold <= 0 {
		return
	}
	now := s.c.cfg.now()
	for _, l := range sortedLeases(s.leases) {
		if l.speculative || s.byKey[l.key] > 1 || now.Sub(l.started) < threshold {
			continue
		}
		var alt *workerSnap
		for _, w := range s.eligibleWorkers() {
			if w.id != l.workerID {
				alt = w
				break
			}
		}
		if alt == nil {
			return // no spare capacity; try again next tick
		}
		s.c.met.specLaunches.Inc()
		s.c.cfg.Logf("deesim-coord: sweep %s: straggler %s on %s (%s > %s), speculating on %s",
			s.sw.ID, l.key, l.workerID, now.Sub(l.started).Round(time.Millisecond), threshold.Round(time.Millisecond), alt.id)
		if err := s.grant(s.taskFor(l.key), l.key, alt, l.attempt, true); err != nil {
			return
		}
	}
}

func sortedLeases(m map[string]*lease) []*lease {
	out := make([]*lease, 0, len(m))
	for _, l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func medianDuration(ds []time.Duration) time.Duration {
	cp := append([]time.Duration(nil), ds...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp[len(cp)/2]
}

func (s *scheduler) cancelAllLeases() {
	for _, l := range s.leases {
		l.cancel()
	}
}

// normJSON compacts a JSON payload for comparison, so semantically
// identical duplicates differing only in insignificant whitespace do
// not masquerade as conflicts.
func normJSON(raw json.RawMessage) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}

func errKindName(err error) string {
	if e, ok := runx.As(err); ok {
		return e.Kind.String()
	}
	return ""
}

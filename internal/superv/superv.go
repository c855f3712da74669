package superv

import (
	"context"
	"encoding/json"
	"strconv"
	"sync"
	"time"

	"deesim/internal/budget"
	"deesim/internal/obs"
	"deesim/internal/runx"
)

const stageRun = "superv.Run"

// Task is one addressable unit of an experiment matrix. Key must be
// unique within a run: it is the task's identity in the journal, so a
// resumed run can match completed records back to tasks.
type Task struct {
	Key string
	// Run computes the task's result. The returned value is marshaled
	// to JSON for the journal and handed to OnDone; it must therefore
	// round-trip through encoding/json.
	Run func(ctx context.Context) (any, error)
}

// RetryPolicy governs per-task retries. The zero value means one
// attempt, no backoff.
type RetryPolicy struct {
	// Attempts is the maximum number of attempts per task (minimum 1).
	Attempts int
	// Backoff is the delay before attempt 2; each further attempt
	// doubles it, capped at MaxBackoff.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (0 = 32×Backoff).
	MaxBackoff time.Duration
	// Seed drives the deterministic jitter: the same (seed, key,
	// attempt) triple always yields the same delay, so a failing sweep
	// replays with identical timing.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 32 * p.Backoff
	}
	return p
}

// Delay returns the backoff before the given attempt (attempt ≥ 2) of
// the task named key: exponential in the attempt number, capped at
// MaxBackoff, with deterministic seeded equal-jitter (the result lies
// in [base/2, base]) so concurrent retries of sibling tasks
// decorrelate without shared state and a replayed run times out
// identically.
func (p RetryPolicy) Delay(key string, attempt int) time.Duration {
	p = p.withDefaults()
	if p.Backoff <= 0 || attempt <= 1 {
		return 0
	}
	base := p.Backoff
	for i := 2; i < attempt && base < p.MaxBackoff; i++ {
		base *= 2
	}
	if base > p.MaxBackoff {
		base = p.MaxBackoff
	}
	// splitmix64 over (seed, fnv(key), attempt): cheap, seedable, and
	// independent of math/rand ordering guarantees (like faultinject).
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	s := p.Seed ^ h ^ (uint64(attempt) * 0x9e3779b97f4a7c15)
	s += 0x9e3779b97f4a7c15
	z := s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return base/2 + time.Duration(z%uint64(base/2+1))
}

// Config parameterizes a supervised run.
type Config struct {
	// Jobs is the worker-pool size (minimum 1).
	Jobs int
	// Retry is the per-task retry policy.
	Retry RetryPolicy
	// Journal, if non-nil, records every task start/finish durably.
	Journal *Journal
	// Prior, if non-nil, is a replayed journal State: tasks recorded as
	// done are not re-run — their journaled payloads are delivered to
	// OnDone with replayed=true — and started-or-failed tasks are
	// re-queued with a fresh attempt budget.
	Prior *State
	// OnDone, if non-nil, observes every task result (replayed or
	// fresh). Calls are serialized by the supervisor — implementations
	// need no locking of their own.
	OnDone func(key string, result json.RawMessage, replayed bool)
	// OnRetry, if non-nil, observes each retry decision (serialized).
	OnRetry func(key string, attempt int, delay time.Duration, err error)
	// Budget, if non-nil, is the process-wide retry budget: every cell
	// retry withdraws one token, and an exhausted budget turns the
	// retryable failure terminal instead of sleeping and re-attempting.
	// Nil preserves the historical unlimited-retry behavior.
	Budget *budget.Budget
	// sleep is a test seam; nil means a context-aware real sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

// Run executes tasks on a bounded worker pool under the journal/retry
// regime described on Config. Replayed results are delivered first, in
// task order; remaining tasks then run concurrently. The first fatal
// (non-retryable, or retries-exhausted) error cancels the siblings and
// is returned, preferring a root cause over the cancellations it
// triggered. Every attempt runs under panic isolation: a panicking task
// becomes a KindPanic error, journaled and retried like any other
// retryable failure, never a crashed supervisor.
func Run(ctx context.Context, tasks []Task, cfg Config) error {
	seen := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if t.Key == "" {
			return runx.Newf(runx.KindInvalidInput, stageRun, "task with empty key")
		}
		if seen[t.Key] {
			return runx.Newf(runx.KindInvalidInput, stageRun, "duplicate task key %q", t.Key)
		}
		if t.Run == nil {
			return runx.Newf(runx.KindInvalidInput, stageRun, "task %q has no Run", t.Key)
		}
		seen[t.Key] = true
	}
	if cfg.Jobs < 1 {
		cfg.Jobs = 1
	}
	cfg.Retry = cfg.Retry.withDefaults()
	if cfg.sleep == nil {
		cfg.sleep = func(ctx context.Context, d time.Duration) error {
			if d <= 0 {
				return nil
			}
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return runx.CtxErr(ctx, stageRun)
			case <-t.C:
				return nil
			}
		}
	}

	var emitMu sync.Mutex // serializes OnDone/OnRetry
	var todo []Task
	if cfg.Prior != nil {
		// Warn-free replay: deliver journaled results in task order, then
		// queue the rest. A journaled key no task claims is tolerated (a
		// narrowed matrix on resume) — merging code simply never asks for it.
		for _, t := range tasks {
			if res, ok := cfg.Prior.Done[t.Key]; ok {
				mTasksReplayed.Inc()
				if cfg.OnDone != nil {
					cfg.OnDone(t.Key, res, true)
				}
				continue
			}
			todo = append(todo, t)
		}
	} else {
		todo = tasks
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil || (runx.IsKind(firstErr, runx.KindCanceled) && !runx.IsKind(err, runx.KindCanceled)) {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}
	queue := make(chan Task)
	for w := 0; w < cfg.Jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range queue {
				if err := runTask(ctx, t, cfg, &emitMu); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for _, t := range todo {
		select {
		case queue <- t:
		case <-ctx.Done():
			break feed
		}
	}
	close(queue)
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	if firstErr == nil {
		if err := runx.CtxErr(ctx, stageRun); err != nil {
			return err
		}
	}
	return firstErr
}

// runTask drives one task through its attempt/retry loop. The attempt
// itself records no span: the task's Run records its own (experiments
// opens one "cell" span per attempt).
func runTask(ctx context.Context, t Task, cfg Config, emitMu *sync.Mutex) error {
	for attempt := 1; ; attempt++ {
		if err := runx.CtxErr(ctx, stageRun); err != nil {
			return runx.Annotate(err, t.Key)
		}
		if cfg.Journal != nil {
			if err := cfg.Journal.Append(Record{Kind: KindStart, Key: t.Key, Attempt: attempt}); err != nil {
				return err
			}
		}
		mTasksStarted.Inc()
		payload, err := runAttempt(ctx, t)
		if err == nil {
			mTasksDone.Inc()
			if cfg.Journal != nil {
				if jerr := cfg.Journal.Append(Record{Kind: KindDone, Key: t.Key, Attempt: attempt, Result: payload}); jerr != nil {
					return jerr
				}
			}
			if cfg.OnDone != nil {
				emitMu.Lock()
				cfg.OnDone(t.Key, payload, false)
				emitMu.Unlock()
			}
			return nil
		}
		err = runx.Annotate(err, t.Key)
		retryable := runx.Retryable(err)
		if cfg.Journal != nil {
			rec := Record{Kind: KindFail, Key: t.Key, Attempt: attempt, Error: err.Error(), Retryable: retryable}
			if e, ok := runx.As(err); ok {
				rec.ErrKind = e.Kind.String()
			}
			if jerr := cfg.Journal.Append(rec); jerr != nil {
				return jerr
			}
		}
		if !retryable || attempt >= cfg.Retry.Attempts {
			return err
		}
		if !cfg.Budget.Allow("superv") {
			mBudgetDenied.Inc()
			return runx.Annotate(runx.Newf(runx.KindUnavailable, stageRun,
				"retry budget exhausted after attempt %d: %w", attempt, err), t.Key)
		}
		delay := cfg.Retry.Delay(t.Key, attempt+1)
		mRetries.Inc()
		obs.Instant(ctx, "retry "+t.Key, map[string]string{"attempt": strconv.Itoa(attempt + 1), "delay": delay.String()})
		if cfg.OnRetry != nil {
			emitMu.Lock()
			cfg.OnRetry(t.Key, attempt+1, delay, err)
			emitMu.Unlock()
		}
		if delay > 0 {
			mBackoffSleeps.Inc()
			mBackoffMs.Add(delay.Milliseconds())
		}
		if serr := cfg.sleep(ctx, delay); serr != nil {
			return runx.Annotate(serr, t.Key)
		}
	}
}

// runAttempt executes one attempt under panic isolation and marshals
// the result.
func runAttempt(ctx context.Context, t Task) (payload json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = runx.FromPanic(r, stageRun)
		}
	}()
	v, err := t.Run(ctx)
	if err != nil {
		return nil, err
	}
	payload, merr := json.Marshal(v)
	if merr != nil {
		return nil, runx.Newf(runx.KindInvalidInput, stageRun, "task %s result not JSON-marshalable: %w", t.Key, merr)
	}
	if string(payload) == "null" {
		return nil, runx.Newf(runx.KindInvalidInput, stageRun, "task %s returned a nil result", t.Key)
	}
	return payload, nil
}

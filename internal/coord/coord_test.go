package coord

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"deesim/internal/experiments"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/server"
)

// smokeSpec is the same 4-cell sweep the server tests use: small
// enough that a whole distributed run finishes in well under a second.
func smokeSpec() server.Spec {
	return server.Spec{
		Workloads: []string{"xlisp"},
		Models:    []string{"SP", "DEE-CD-MF"},
		Resources: []int{8, 64},
		MaxInstrs: 3000,
	}
}

// goldenResult computes the single-node result bytes for a spec — the
// exact MarshalIndent+newline encoding deesimd writes — which the
// distributed merge must reproduce byte for byte.
func goldenResult(t *testing.T, sp server.Spec) []byte {
	t.Helper()
	ws, cfg, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	results, err := experiments.RunMatrixContext(context.Background(), ws, cfg, experiments.MatrixConfig{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// fakeWorker is a WorkerClient whose behavior is scripted per call.
// The default behavior executes the real cell, so merged results are
// genuine simulator output.
type fakeWorker struct {
	mu       sync.Mutex
	calls    int
	behavior func(ctx context.Context, call int, req server.CellRequest) (json.RawMessage, error)
}

func (f *fakeWorker) RunCell(ctx context.Context, req server.CellRequest) (json.RawMessage, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	b := f.behavior
	f.mu.Unlock()
	if b == nil {
		return runRealCell(ctx, req)
	}
	return b(ctx, n, req)
}

func (f *fakeWorker) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// runRealCell executes the requested cell through the same code path a
// deesimd worker uses, returning the CellResult JSON.
func runRealCell(ctx context.Context, req server.CellRequest) (json.RawMessage, error) {
	ws, cfg, err := req.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	res, err := experiments.RunCell(ctx, ws, cfg, req.Task)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// stall blocks until the lease is revoked, mimicking a hung or
// partitioned worker whose RPC never returns on its own.
func stall(ctx context.Context, _ int, _ server.CellRequest) (json.RawMessage, error) {
	<-ctx.Done()
	return nil, runx.CtxErr(ctx, "fakeWorker.stall")
}

// newTestCoord builds a coordinator with inert timeouts (nothing
// expires unless a test asks for it), a private metrics registry, and a
// fake fleet resolved by worker URL.
func newTestCoord(t *testing.T, fakes map[string]*fakeWorker, mod func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		StateDir:         t.TempDir(),
		LeaseTTL:         time.Hour,
		HeartbeatTimeout: time.Hour,
		Backoff:          time.Millisecond,
		StragglerFactor:  -1, // disabled unless a test opts in
		DrainGrace:       50 * time.Millisecond,
		Metrics:          obs.NewRegistry(),
		NewWorkerClient: func(url string) WorkerClient {
			f, ok := fakes[url]
			if !ok {
				t.Errorf("no fake registered for worker url %q", url)
				return &fakeWorker{}
			}
			return f
		},
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func registerWorker(t *testing.T, c *Coordinator, url string, slots int) string {
	t.Helper()
	id, _, err := c.RegisterWorker(url, slots)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// beatForever heartbeats a worker on a short cadence until the test
// ends, keeping it live past tight HeartbeatTimeout settings.
func beatForever(t *testing.T, c *Coordinator, id string) {
	t.Helper()
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = c.HeartbeatWorker(id, server.WorkerReady, 0)
			}
		}
	}()
}

// waitSweep polls a sweep until it leaves the queued/running states.
func waitSweep(t *testing.T, c *Coordinator, id string, timeout time.Duration) *server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var st *server.JobStatus
	for time.Now().Before(deadline) {
		var ok bool
		st, ok = c.Status(id)
		if !ok {
			t.Fatalf("sweep %s vanished", id)
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateInterrupted:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never finished (last: %+v)", id, st)
	return nil
}

func counter(c *Coordinator, name string) int64 {
	return c.cfg.Metrics.GetOrCreateCounter(name).Value()
}

// TestDistributedSweepByteIdentical is the merge proof in miniature:
// three healthy workers each run a share of the cells, and the merged
// result file must be byte-identical to a single-node run.
func TestDistributedSweepByteIdentical(t *testing.T) {
	fakes := map[string]*fakeWorker{
		"http://w1": {}, "http://w2": {}, "http://w3": {},
	}
	c := newTestCoord(t, fakes, nil)
	for url := range fakes {
		registerWorker(t, c, url, 1)
	}
	c.Start()

	st, err := c.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, c, st.ID, 10*time.Second)
	if final.State != server.StateDone {
		t.Fatalf("sweep ended %s: %s", final.State, final.Error)
	}
	if final.CellsDone != final.CellsTotal || final.CellsTotal != 4 {
		t.Errorf("cells %d/%d, want 4/4", final.CellsDone, final.CellsTotal)
	}

	merged, err := os.ReadFile(c.ResultPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if golden := goldenResult(t, smokeSpec()); string(merged) != string(golden) {
		t.Errorf("merged result differs from single-node golden:\n--- merged ---\n%.400s\n--- golden ---\n%.400s", merged, golden)
	}
	// With 1 slot each and 4 cells, every worker took at least one cell.
	for url, f := range fakes {
		if f.callCount() == 0 {
			t.Errorf("worker %s never received a cell", url)
		}
	}
	if got := counter(c, "deesim_coord_merge_checks_total"); got != 1 {
		t.Errorf("merge checks = %d, want 1", got)
	}
	if got := counter(c, "deesim_coord_cells_done_total"); got != 4 {
		t.Errorf("cells done counter = %d, want 4", got)
	}
}

// TestLeaseTTLExpiryRedispatch: a worker that hangs on its first cell
// loses the lease at TTL; the cell re-dispatches and the sweep still
// produces the exact single-node result.
func TestLeaseTTLExpiryRedispatch(t *testing.T) {
	f := &fakeWorker{behavior: func(ctx context.Context, call int, req server.CellRequest) (json.RawMessage, error) {
		if call == 1 {
			return stall(ctx, call, req)
		}
		return runRealCell(ctx, req)
	}}
	fakes := map[string]*fakeWorker{"http://w1": f}
	c := newTestCoord(t, fakes, func(cfg *Config) {
		cfg.LeaseTTL = 80 * time.Millisecond
		cfg.HeartbeatTimeout = time.Hour
	})
	registerWorker(t, c, "http://w1", 4)
	c.Start()

	st, err := c.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, c, st.ID, 10*time.Second)
	if final.State != server.StateDone {
		t.Fatalf("sweep ended %s: %s", final.State, final.Error)
	}
	if got := counter(c, "deesim_coord_lease_expiries_total"); got == 0 {
		t.Error("no lease expiry recorded for the hung cell")
	}
	if got := counter(c, "deesim_coord_redispatches_total"); got == 0 {
		t.Error("no re-dispatch recorded")
	}
	merged, err := os.ReadFile(c.ResultPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if golden := goldenResult(t, smokeSpec()); string(merged) != string(golden) {
		t.Error("result after lease expiry differs from single-node golden")
	}
}

// TestHeartbeatLossEviction: a worker that stops heartbeating is
// declared lost, its leases expire immediately, and its cells finish
// elsewhere.
func TestHeartbeatLossEviction(t *testing.T) {
	dead := &fakeWorker{behavior: stall}
	live := &fakeWorker{}
	fakes := map[string]*fakeWorker{"http://dead": dead, "http://live": live}
	c := newTestCoord(t, fakes, func(cfg *Config) {
		cfg.HeartbeatTimeout = 100 * time.Millisecond
		cfg.LeaseTTL = time.Hour // only heartbeat loss can free the cells
	})
	deadID := registerWorker(t, c, "http://dead", 2)
	liveID := registerWorker(t, c, "http://live", 2)
	beatForever(t, c, liveID)
	c.Start()

	st, err := c.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, c, st.ID, 10*time.Second)
	if final.State != server.StateDone {
		t.Fatalf("sweep ended %s: %s", final.State, final.Error)
	}
	if got := counter(c, "deesim_coord_worker_evictions_total"); got == 0 {
		t.Error("dead worker never evicted")
	}
	var deadState string
	for _, w := range c.Fleet() {
		if w.ID == deadID {
			deadState = w.State
		}
	}
	if deadState != "lost" {
		t.Errorf("dead worker state = %q, want lost", deadState)
	}
	merged, err := os.ReadFile(c.ResultPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if golden := goldenResult(t, smokeSpec()); string(merged) != string(golden) {
		t.Error("result after worker loss differs from single-node golden")
	}
}

// TestStragglerSpeculation: with every cell but one complete, a lease
// running far past the median gets a speculative duplicate on another
// worker, and the speculative copy wins.
func TestStragglerSpeculation(t *testing.T) {
	sp := smokeSpec()
	ws, cfg0, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	stragglerKey := experiments.MatrixTasks(ws, cfg0)[0].Key()

	slow := &fakeWorker{behavior: func(ctx context.Context, call int, req server.CellRequest) (json.RawMessage, error) {
		if req.Task.Key() == stragglerKey {
			return stall(ctx, call, req)
		}
		return runRealCell(ctx, req)
	}}
	fast := &fakeWorker{}
	fakes := map[string]*fakeWorker{"http://slow": slow, "http://fast": fast}
	c := newTestCoord(t, fakes, func(cfg *Config) {
		cfg.StragglerFactor = 1 // aggressive, so the test fires promptly
		cfg.HeartbeatTimeout = 400 * time.Millisecond
	})
	// The slow worker sorts first by id after registration order; cell 0
	// (the straggler) deterministically lands on it first.
	slowID := registerWorker(t, c, "http://slow", 4)
	fastID := registerWorker(t, c, "http://fast", 4)
	beatForever(t, c, slowID)
	beatForever(t, c, fastID)
	c.Start()

	st, err := c.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, c, st.ID, 10*time.Second)
	if final.State != server.StateDone {
		t.Fatalf("sweep ended %s: %s", final.State, final.Error)
	}
	if got := counter(c, "deesim_coord_straggler_speculations_total"); got == 0 {
		t.Error("straggler never speculated")
	}
	if got := counter(c, "deesim_coord_straggler_wins_total"); got == 0 {
		t.Error("speculative copy never won")
	}
	merged, err := os.ReadFile(c.ResultPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if golden := goldenResult(t, sp); string(merged) != string(golden) {
		t.Error("result after speculation differs from single-node golden")
	}
}

// TestDuplicateResolution drives the scheduler's completion handler
// directly: first durable completion wins, identical duplicates are
// discarded with a counter, conflicting duplicates poison the sweep
// with a typed corruption error.
func TestDuplicateResolution(t *testing.T) {
	c := newTestCoord(t, nil, nil)
	jr, err := Create(filepath.Join(t.TempDir(), "j"), "deesim-coord", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	s := &scheduler{
		c: c, sw: &server.Record{ID: "s000001"}, jr: jr,
		leases: make(map[string]*lease),
		byKey:  make(map[string]int),
		done:   make(map[string]json.RawMessage),
	}

	if err := s.complete(completion{leaseID: "l1", key: "k", workerID: "w1", payload: json.RawMessage(`{"v": 1}`)}); err != nil {
		t.Fatal(err)
	}
	if string(s.done["k"]) != `{"v": 1}` {
		t.Fatalf("first completion not durable: %q", s.done["k"])
	}

	// Identical duplicate (insignificant whitespace differs): discarded.
	if err := s.complete(completion{leaseID: "l2", key: "k", workerID: "w2", payload: json.RawMessage(`{"v":1}`)}); err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	if string(s.done["k"]) != `{"v": 1}` {
		t.Error("duplicate overwrote the durable winner")
	}
	if got := counter(c, "deesim_coord_duplicate_completions_total"); got != 1 {
		t.Errorf("duplicate discards = %d, want 1", got)
	}

	// Conflicting duplicate: typed corruption, sweep poison.
	err = s.complete(completion{leaseID: "l3", key: "k", workerID: "w3", payload: json.RawMessage(`{"v":2}`)})
	if !runx.IsKind(err, runx.KindCorrupt) {
		t.Fatalf("conflicting duplicate = %v, want KindCorrupt", err)
	}
	if got := counter(c, "deesim_coord_duplicate_conflicts_total"); got != 1 {
		t.Errorf("duplicate conflicts = %d, want 1", got)
	}
}

// TestNonRetryableCellFailsSweep: a deterministic cell failure fails
// the sweep with the worker's typed kind instead of burning retries.
func TestNonRetryableCellFailsSweep(t *testing.T) {
	f := &fakeWorker{behavior: func(context.Context, int, server.CellRequest) (json.RawMessage, error) {
		return nil, runx.Newf(runx.KindInvalidInput, "test", "poisoned cell")
	}}
	c := newTestCoord(t, map[string]*fakeWorker{"http://w1": f}, nil)
	registerWorker(t, c, "http://w1", 4)
	c.Start()

	st, err := c.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, c, st.ID, 10*time.Second)
	if final.State != server.StateFailed {
		t.Fatalf("sweep ended %s, want failed", final.State)
	}
	if final.Kind != runx.KindInvalidInput.String() {
		t.Errorf("failure kind = %q, want %q", final.Kind, runx.KindInvalidInput.String())
	}
	if !c.Exists(filepath.Join(c.Dir(st.ID), "failed.json")) {
		t.Error("permanent failure not recorded to failed.json")
	}
	if got := counter(c, "deesim_coord_cells_failed_total"); got == 0 {
		t.Error("terminal cell failure not counted")
	}
}

// TestAttemptExhaustion: a cell that fails retryably on every dispatch
// spends its lease budget and sinks the sweep with an annotated error.
func TestAttemptExhaustion(t *testing.T) {
	f := &fakeWorker{behavior: func(context.Context, int, server.CellRequest) (json.RawMessage, error) {
		return nil, runx.Newf(runx.KindUnavailable, "test", "worker keeps refusing")
	}}
	c := newTestCoord(t, map[string]*fakeWorker{"http://w1": f}, func(cfg *Config) {
		cfg.CellRetries = 1
	})
	registerWorker(t, c, "http://w1", 4)
	c.Start()

	st, err := c.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	final := waitSweep(t, c, st.ID, 10*time.Second)
	if final.State != server.StateFailed {
		t.Fatalf("sweep ended %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "failed after") {
		t.Errorf("exhaustion error %q does not name the spent budget", final.Error)
	}
	if got := counter(c, "deesim_coord_redispatches_total"); got == 0 {
		t.Error("no re-dispatch before exhaustion")
	}
}

// TestCoordinatorCrashResume: kill the coordinator mid-sweep, start a
// fresh one over the same state directory, and prove the resumed sweep
// (a) does not re-run journaled cells and (b) still produces the
// byte-identical single-node result.
func TestCoordinatorCrashResume(t *testing.T) {
	stateDir := t.TempDir()
	phase1 := &fakeWorker{behavior: func(ctx context.Context, call int, req server.CellRequest) (json.RawMessage, error) {
		if call <= 2 {
			return runRealCell(ctx, req)
		}
		return stall(ctx, call, req) // later cells hang until the "crash"
	}}
	c1 := newTestCoord(t, map[string]*fakeWorker{"http://w1": phase1}, func(cfg *Config) {
		cfg.StateDir = stateDir
	})
	registerWorker(t, c1, "http://w1", 4)
	c1.Start()
	st, err := c1.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for exactly the two unstalled cells to complete durably.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := c1.Status(st.ID)
		if cur.CellsDone >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("phase 1 never completed 2 cells: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c1.Close() // the crash: cancels the sweep, abandons the journal mid-flight

	phase2 := &fakeWorker{}
	c2 := newTestCoord(t, map[string]*fakeWorker{"http://w1": phase2}, func(cfg *Config) {
		cfg.StateDir = stateDir
	})
	registerWorker(t, c2, "http://w1", 4)
	c2.Start()

	final := waitSweep(t, c2, st.ID, 10*time.Second)
	if final.State != server.StateDone {
		t.Fatalf("resumed sweep ended %s: %s", final.State, final.Error)
	}
	if !final.Resumed {
		t.Error("resumed sweep not flagged Resumed")
	}
	if got := counter(c2, "deesim_coord_sweeps_resumed_total"); got != 1 {
		t.Errorf("sweeps resumed = %d, want 1", got)
	}
	// The resumed run must only execute the cells the journal lacks.
	if got := phase2.callCount(); got != 2 {
		t.Errorf("resume re-ran cells: %d fresh dispatches, want 2", got)
	}
	merged, err := os.ReadFile(c2.ResultPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if golden := goldenResult(t, smokeSpec()); string(merged) != string(golden) {
		t.Error("resumed result differs from single-node golden")
	}
}

// TestSubmitAdmission: draining coordinators and full queues shed with
// the same typed kinds the worker daemon uses.
func TestSubmitAdmission(t *testing.T) {
	c := newTestCoord(t, nil, func(cfg *Config) {
		cfg.QueueDepth = 1
	})
	// Runner not started: submissions pile up in the queue.
	if _, err := c.Submit(smokeSpec()); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(smokeSpec())
	if !runx.IsKind(err, runx.KindOverload) {
		t.Errorf("overflow submit = %v, want KindOverload", err)
	}

	c2 := newTestCoord(t, nil, nil)
	c2.Start()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = c2.Submit(smokeSpec())
	if !runx.IsKind(err, runx.KindUnavailable) {
		t.Errorf("draining submit = %v, want KindUnavailable", err)
	}

	if _, err := c2.Submit(server.Spec{Workloads: []string{"no-such"}}); err == nil {
		t.Error("invalid spec admitted")
	}
}

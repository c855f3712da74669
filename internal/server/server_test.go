package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deesim/internal/durable"
	"deesim/internal/superv"
)

// smokeSpec is a 4-cell sweep that completes in well under a second.
func smokeSpec() Spec {
	return Spec{
		Workloads: []string{"xlisp"},
		Models:    []string{"SP", "DEE-CD-MF"},
		Resources: []int{8, 64},
		MaxInstrs: 3000,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

// waitState polls a job until it reaches want (or the deadline).
func waitState(t *testing.T, base, id, want string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var st JobStatus
	for time.Now().Before(deadline) {
		resp, body := getJSON(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != 200 {
			t.Fatalf("status %s: HTTP %d: %s", id, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed while waiting for %s: %s", id, want, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (last: %+v)", id, want, st)
	return st
}

func TestSubmitStatusResult(t *testing.T) {
	_, hs := newTestServer(t, Config{CellJobs: 2})
	resp, body := postJSON(t, hs.URL+"/v1/jobs", smokeSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StateQueued || st.CellsTotal != 4 {
		t.Fatalf("unexpected accepted status: %+v", st)
	}

	final := waitState(t, hs.URL, st.ID, StateDone, 30*time.Second)
	if final.CellsDone != final.CellsTotal {
		t.Errorf("done job reports %d/%d cells", final.CellsDone, final.CellsTotal)
	}
	resp, body = getJSON(t, hs.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != 200 {
		t.Fatalf("result: HTTP %d: %s", resp.StatusCode, body)
	}
	var results []map[string]any
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	// xlisp plus the harmonic-mean panel requires >1 workload; single
	// workload yields just its own result.
	if len(results) == 0 {
		t.Fatal("empty result set")
	}

	resp, body = getJSON(t, hs.URL+"/v1/jobs")
	if resp.StatusCode != 200 || !strings.Contains(string(body), st.ID) {
		t.Errorf("list: HTTP %d body %s", resp.StatusCode, body)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	bad := []any{
		Spec{Workloads: []string{"no-such-workload"}},
		Spec{Models: []string{"NOPE"}},
		Spec{Resources: []int{8, 8}}, // duplicate ET
		Spec{Timeout: "not-a-duration"},
		map[string]any{"unknown_field": true},
	}
	for i, sp := range bad {
		resp, body := postJSON(t, hs.URL+"/v1/jobs", sp)
		if resp.StatusCode != 400 {
			t.Errorf("bad spec %d: HTTP %d (want 400): %s", i, resp.StatusCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "invalid input" {
			t.Errorf("bad spec %d: error body %s (want kind \"invalid input\")", i, body)
		}
	}
	if resp, body := getJSON(t, hs.URL+"/v1/jobs/j999999"); resp.StatusCode != 400 {
		t.Errorf("unknown job: HTTP %d: %s", resp.StatusCode, body)
	}
}

// TestOverloadSheds is the synthetic overload acceptance test:
// submissions beyond queue capacity are shed with 429 + Retry-After,
// and every accepted job still completes.
func TestOverloadSheds(t *testing.T) {
	_, hs := newTestServer(t, Config{QueueDepth: 2, Workers: 1, CellJobs: 1})

	// The first job occupies the single worker for a while (synthetic
	// per-cell pacing); the next two fill the admission queue.
	slow := smokeSpec()
	slow.CellDelay = "300ms"
	var accepted []string
	shed := 0
	for i := 0; i < 6; i++ {
		sp := slow
		if i > 0 {
			sp = smokeSpec()
		}
		resp, body := postJSON(t, hs.URL+"/v1/jobs", sp)
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, st.ID)
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "overload" {
				t.Errorf("429 body %s (want kind \"overload\")", body)
			}
		default:
			t.Fatalf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	if shed == 0 {
		t.Fatal("no submission was shed despite queue depth 2 and 6 rapid submissions")
	}
	if len(accepted) == 0 {
		t.Fatal("every submission was shed")
	}
	t.Logf("accepted %d, shed %d", len(accepted), shed)
	// Shedding must not damage accepted work: all of it finishes.
	for _, id := range accepted {
		waitState(t, hs.URL, id, StateDone, 60*time.Second)
	}
}

// TestDrainJournalsInFlight drains a server mid-sweep: admission turns
// 503, readyz flips, the running job is interrupted with its progress
// journaled, and a fresh server over the same state dir resumes it to
// the byte-identical result of an uninterrupted run.
func TestDrainJournalsInFlight(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{StateDir: dir, Workers: 1, CellJobs: 1, DrainGrace: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	slow := smokeSpec()
	slow.CellDelay = "10s" // park the sweep after its first cell
	resp, body := postJSON(t, hs.URL+"/v1/jobs", slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Wait for at least one durable cell before pulling the plug.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, ok := s.Status(st.ID)
		if ok && cur.CellsDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed a first cell")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Post-drain API surface: alive, not ready, shedding submissions.
	if resp, _ := getJSON(t, hs.URL+"/healthz"); resp.StatusCode != 200 {
		t.Errorf("healthz after drain: HTTP %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, hs.URL+"/readyz"); resp.StatusCode != 503 {
		t.Errorf("readyz after drain: HTTP %d (want 503)", resp.StatusCode)
	}
	resp, body = postJSON(t, hs.URL+"/v1/jobs", smokeSpec())
	if resp.StatusCode != 503 {
		t.Errorf("submit while draining: HTTP %d (want 503): %s", resp.StatusCode, body)
	}

	cur, _ := s.Status(st.ID)
	if cur.State != StateInterrupted {
		t.Fatalf("drained job state %s, want %s", cur.State, StateInterrupted)
	}
	jpath := filepath.Join(dir, "jobs", st.ID, "run.journal")
	jstate, err := superv.Load(jpath)
	if err != nil {
		t.Fatalf("interrupted job journal: %v", err)
	}
	if len(jstate.Done) < 1 {
		t.Fatalf("journal records %d done cells, want >= 1", len(jstate.Done))
	}
	t.Logf("drained with %d/%d cells journaled", len(jstate.Done), cur.CellsTotal)

	// Restart over the same state dir: the job resumes and completes.
	// Strip the synthetic pacing by rewriting the durable spec — the
	// resumed run must replay the journaled cells, not their delays.
	specPath := filepath.Join(dir, "jobs", st.ID, "spec.json")
	fast := smokeSpec()
	fastData, _ := json.Marshal(fast)
	// Atomic write keeps the digest sidecar in step — a bare
	// os.WriteFile would (correctly) read as corruption on recovery.
	if err := durable.WriteFileAtomic(nil, specPath, fastData); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{StateDir: dir, Workers: 1, CellJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	hs2 := httptest.NewServer(s2.Handler())
	defer func() {
		hs2.Close()
		s2.Close()
	}()
	re := waitState(t, hs2.URL, st.ID, StateDone, 60*time.Second)
	if !re.Resumed {
		t.Error("recovered job not flagged resumed")
	}
	_, resumed := getJSON(t, hs2.URL+"/v1/jobs/"+st.ID+"/result")

	// Control: the same spec, uninterrupted, on a fresh server.
	cdir := t.TempDir()
	s3, err := New(Config{StateDir: cdir, Workers: 1, CellJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	s3.Start()
	hs3 := httptest.NewServer(s3.Handler())
	defer func() {
		hs3.Close()
		s3.Close()
	}()
	resp, body = postJSON(t, hs3.URL+"/v1/jobs", fast)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("control submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var cst JobStatus
	if err := json.Unmarshal(body, &cst); err != nil {
		t.Fatal(err)
	}
	waitState(t, hs3.URL, cst.ID, StateDone, 60*time.Second)
	_, control := getJSON(t, hs3.URL+"/v1/jobs/"+cst.ID+"/result")

	if !bytes.Equal(resumed, control) {
		t.Errorf("resumed result differs from uninterrupted run:\n--- resumed ---\n%s\n--- control ---\n%s", resumed, control)
	}
}

// TestRecoveryResumesQueuedJob covers the crash shape where a job was
// accepted (spec durable) but never started: a fresh server must pick
// it up and run it to completion.
func TestRecoveryResumesQueuedJob(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "jobs", "j000007")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	specData, _ := json.Marshal(smokeSpec())
	if err := os.WriteFile(filepath.Join(jdir, "spec.json"), specData, 0o644); err != nil {
		t.Fatal(err)
	}
	s, hs := newTestServer(t, Config{StateDir: dir, CellJobs: 2})
	st := waitState(t, hs.URL, "j000007", StateDone, 60*time.Second)
	if !st.Resumed {
		t.Error("recovered job not flagged resumed")
	}
	// New submissions must not collide with the recovered id space.
	st2, err := s.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID <= "j000007" {
		t.Errorf("post-recovery id %s not after j000007", st2.ID)
	}
}

// TestPanicIsolationPerRequest proves a panicking handler yields a
// structured 500, not a dead server.
func TestPanicIsolationPerRequest(t *testing.T) {
	s, err := New(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", s.wrap("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}))
	mux.HandleFunc("GET /ok", s.wrap("ok", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, 200, map[string]string{"status": "ok"})
	}))
	hs := httptest.NewServer(mux)
	defer hs.Close()

	resp, body := getJSON(t, hs.URL+"/boom")
	if resp.StatusCode != 500 {
		t.Fatalf("panicking handler: HTTP %d: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "panic" {
		t.Errorf("panic error body %s (want kind \"panic\")", body)
	}
	// The server is still serving.
	if resp, _ := getJSON(t, hs.URL+"/ok"); resp.StatusCode != 200 {
		t.Errorf("server dead after handler panic: HTTP %d", resp.StatusCode)
	}
}

// TestFailedJobIsPermanent checks a deterministic failure writes
// failed.json and is not re-queued by recovery.
func TestFailedJobIsPermanent(t *testing.T) {
	dir := t.TempDir()
	// A spec that validates at admission but whose journal was recorded
	// under a different matrix cannot happen here; instead force failure
	// via an impossible job-level deadline.
	sp := smokeSpec()
	sp.Timeout = "1ns"
	s, hs := newTestServer(t, Config{StateDir: dir})
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, hs.URL, st.ID, StateFailed, 30*time.Second)
	if final.Kind != "deadline exceeded" {
		t.Errorf("failure kind %q, want deadline exceeded", final.Kind)
	}
	if !s.Exists(filepath.Join(dir, "jobs", st.ID, "failed.json")) {
		t.Error("no failed.json marker for permanent failure")
	}
	// Result endpoint reports the failure with its kind.
	resp, body := getJSON(t, hs.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != 504 {
		t.Errorf("failed job result: HTTP %d (want 504): %s", resp.StatusCode, body)
	}

	// A restart must not resurrect it.
	s2, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st2, ok := s2.Status(st.ID)
	if !ok || st2.State != StateFailed {
		t.Errorf("recovered failed job state: %+v", st2)
	}
}

// TestResultNotReady checks the retry-later contract on a running job's
// result endpoint.
func TestResultNotReady(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, CellJobs: 1})
	sp := smokeSpec()
	sp.CellDelay = "2s"
	st, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := getJSON(t, hs.URL+"/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != 503 {
		t.Fatalf("result of unfinished job: HTTP %d (want 503): %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "unavailable" {
		t.Errorf("not-ready body %s (want kind \"unavailable\")", body)
	}
}

func TestHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, body := getJSON(t, hs.URL+ep)
		if resp.StatusCode != 200 {
			t.Errorf("%s: HTTP %d: %s", ep, resp.StatusCode, body)
		}
	}
}

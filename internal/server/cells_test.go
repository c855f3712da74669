package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"deesim/internal/experiments"
	"deesim/internal/obs"
)

// cellRequestFor builds a valid CellRequest for the spec's first cell.
func cellRequestFor(t *testing.T, sp Spec) CellRequest {
	t.Helper()
	ws, cfg, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return CellRequest{Spec: sp, Task: experiments.MatrixTasks(ws, cfg)[0], Lease: "test-l00001"}
}

// TestCellEndpoint: a leased cell executes synchronously and returns
// the CellResult the coordinator journals verbatim — identical to the
// result the in-process code path computes.
func TestCellEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{CellSlots: 2})
	cr := cellRequestFor(t, smokeSpec())

	resp, body := postJSON(t, hs.URL+"/v1/cells", cr)
	if resp.StatusCode != 200 {
		t.Fatalf("cell: HTTP %d: %s", resp.StatusCode, body)
	}
	var got experiments.CellResult
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	ws, cfg, err := cr.Spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunCell(context.Background(), ws, cfg, cr.Task)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("served cell differs from in-process run:\n%s\n%s", gotJSON, wantJSON)
	}
}

// TestCellReusesInputAcrossLeases: the worker keeps one prepared-input
// table for its lifetime, so every cell of one input after the first
// reuses its trace and simulator instead of rebuilding them.
func TestCellReusesInputAcrossLeases(t *testing.T) {
	_, hs := newTestServer(t, Config{CellSlots: 1})
	sp := smokeSpec()
	ws, cfg, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	builds := obs.GetOrCreateCounter("deesim_input_builds_total")
	b0 := builds.Value()
	for _, task := range experiments.MatrixTasks(ws, cfg) {
		resp, body := postJSON(t, hs.URL+"/v1/cells", CellRequest{Spec: sp, Task: task})
		if resp.StatusCode != 200 {
			t.Fatalf("cell %s: HTTP %d: %s", task.Key(), resp.StatusCode, body)
		}
	}
	if d := builds.Value() - b0; d != 1 {
		t.Errorf("%d leased cells of one input built it %d times, want 1", experiments.MatrixTaskCount(ws, cfg), d)
	}
}

// TestCellInvalidTask: a task outside the spec's matrix is a 400, not
// an execution attempt.
func TestCellInvalidTask(t *testing.T) {
	_, hs := newTestServer(t, Config{CellSlots: 2})
	cr := cellRequestFor(t, smokeSpec())
	cr.Task.ET = 999 // not in the spec's resource list

	resp, body := postJSON(t, hs.URL+"/v1/cells", cr)
	if resp.StatusCode != 400 {
		t.Errorf("invalid task: HTTP %d (want 400): %s", resp.StatusCode, body)
	}
}

// TestCellOverloadShed: a worker with every slot busy sheds the next
// cell with 429 + Retry-After so the coordinator leases elsewhere.
func TestCellOverloadShed(t *testing.T) {
	_, hs := newTestServer(t, Config{CellSlots: 1, RetryAfter: time.Second})
	slow := smokeSpec()
	slow.CellDelay = "3s" // result computed, then the slot parks

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, hs.URL+"/v1/cells", cellRequestFor(t, slow))
	}()

	// Wait until the worker reports busy (the slot is occupied), then a
	// second cell must shed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := getJSON(t, hs.URL+"/readyz")
		var rs ReadyStatus
		if err := json.Unmarshal(body, &rs); err != nil {
			t.Fatal(err)
		}
		if rs.Status == WorkerBusy {
			if resp.StatusCode != 200 {
				t.Errorf("busy readyz: HTTP %d (busy is 200: the process serves)", resp.StatusCode)
			}
			if rs.CellsInflight != 1 || rs.CellSlots != 1 {
				t.Errorf("busy readyz body = %+v", rs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never reported busy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body := postJSON(t, hs.URL+"/v1/cells", cellRequestFor(t, smokeSpec()))
	if resp.StatusCode != 429 {
		t.Fatalf("overloaded cell: HTTP %d (want 429): %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed cell missing Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "overload" {
		t.Errorf("shed cell kind = %q (err %v)", eb.Kind, err)
	}
	wg.Wait()
}

// TestCellDrainingShed + readyz tri-state: a draining worker refuses
// cells with 503 and reports "draining" distinctly from "ready" and
// "busy", so the coordinator stops leasing without burning a lease.
func TestCellDrainingShed(t *testing.T) {
	s, hs := newTestServer(t, Config{CellSlots: 2, DrainGrace: 50 * time.Millisecond})

	resp, body := getJSON(t, hs.URL+"/readyz")
	var rs ReadyStatus
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || rs.Status != WorkerReady {
		t.Errorf("idle readyz: HTTP %d %q, want 200 ready", resp.StatusCode, rs.Status)
	}
	if s.WorkerState() != WorkerReady {
		t.Errorf("WorkerState = %q, want ready", s.WorkerState())
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.WorkerState() != WorkerDraining {
		t.Errorf("WorkerState after drain = %q, want draining", s.WorkerState())
	}

	resp, body = getJSON(t, hs.URL+"/readyz")
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || rs.Status != WorkerDraining {
		t.Errorf("draining readyz: HTTP %d %q, want 503 draining", resp.StatusCode, rs.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz missing Retry-After")
	}

	resp, body = postJSON(t, hs.URL+"/v1/cells", cellRequestFor(t, smokeSpec()))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("cell while draining: HTTP %d (want 503): %s", resp.StatusCode, body)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deesim/internal/experiments"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/superv"
)

// The thundering-herd acceptance test: 32 concurrent identical
// submissions against a memoized daemon must cost exactly one
// simulation per cell of ONE sweep, and every caller must get
// byte-identical result bytes. This is the e2e half of the ISSUE's
// perf claim — the CI job drives the same scenario through real
// binaries.

func newMemoServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	m, err := memo.New(memo.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Memo = m
	s, hs := newTestServer(t, cfg)
	return s, hs.URL
}

func TestThunderingHerdCollapsesToOneSweep(t *testing.T) {
	const herd = 32
	_, base := newMemoServer(t, Config{QueueDepth: herd, Workers: 8})
	started := obs.GetOrCreateCounter("deesim_cells_started_total")
	hits := obs.GetOrCreateCounter("deesim_memo_hits_total")
	collapsed := obs.GetOrCreateCounter("deesim_memo_collapsed_total")
	s0, h0, c0 := started.Value(), hits.Value(), collapsed.Value()

	sp := smokeSpec()
	ids := make([]string, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/jobs", sp)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
				return
			}
			var st JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	results := make([][]byte, herd)
	for i, id := range ids {
		waitState(t, base, id, StateDone, 30*time.Second)
		resp, body := getJSON(t, base+"/v1/jobs/"+id+"/result")
		if resp.StatusCode != 200 {
			t.Fatalf("result %s: HTTP %d: %s", id, resp.StatusCode, body)
		}
		results[i] = body
	}

	// One sweep's worth of simulations, no matter how many submitters.
	ws, cfg, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	wantCells := int64(experiments.MatrixTaskCount(ws, cfg))
	if d := started.Value() - s0; d != wantCells {
		t.Errorf("herd of %d started %d simulations, want %d (one sweep)", herd, d, wantCells)
	}
	// Every non-winning job resolved as exactly one spec-level hit or
	// collapse: the hit-rate series must account for all 31 of them.
	if d := (hits.Value() - h0) + (collapsed.Value() - c0); d < herd-1 {
		t.Errorf("hits+collapsed advanced by %d, want >= %d", d, herd-1)
	}

	for i := 1; i < herd; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("job %s result differs from job %s: collapsed submissions must share bytes", ids[i], ids[0])
		}
	}
	// And the shared bytes are what an unmemoized server would produce.
	_, plainBase := newTestServer(t, Config{QueueDepth: 1, Workers: 1})
	resp, body := postJSON(t, plainBase.URL+"/v1/jobs", sp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plain submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var pst JobStatus
	if err := json.Unmarshal(body, &pst); err != nil {
		t.Fatal(err)
	}
	waitState(t, plainBase.URL, pst.ID, StateDone, 30*time.Second)
	_, plain := getJSON(t, plainBase.URL+"/v1/jobs/"+pst.ID+"/result")
	if !bytes.Equal(plain, results[0]) {
		t.Errorf("memoized result differs from unmemoized server's result")
	}
}

func TestCellRPCCollapsesConcurrentDuplicates(t *testing.T) {
	// The fleet-facing half: identical leased cells arriving together
	// block on one in-flight computation and share its bytes.
	const herd = 8
	_, base := newMemoServer(t, Config{CellSlots: herd})
	started := obs.GetOrCreateCounter("deesim_cells_started_total")
	s0 := started.Value()

	cr := cellRequestFor(t, smokeSpec())
	results := make([][]byte, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/cells", cr)
			if resp.StatusCode != 200 {
				t.Errorf("cell %d: HTTP %d: %s", i, resp.StatusCode, body)
				return
			}
			results[i] = body
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if d := started.Value() - s0; d != 1 {
		t.Errorf("%d identical cell RPCs started %d simulations, want 1", herd, d)
	}
	for i := 1; i < herd; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("cell response %d differs from response 0", i)
		}
	}
	// The payload is a valid CellResult matching a direct computation.
	ws, cfg, err := cr.Spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunCell(context.Background(), ws, cfg, cr.Task)
	if err != nil {
		t.Fatal(err)
	}
	var got experiments.CellResult
	if err := json.Unmarshal(results[0], &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("collapsed cell differs from direct RunCell:\n%s\n%s", gotJSON, wantJSON)
	}
}

func TestMemoServerSurvivesRestartWarm(t *testing.T) {
	// The store is durable: a daemon restarted over the same -memo-dir
	// serves a repeated spec without a single simulation.
	memoDir := t.TempDir()
	m1, err := memo.New(memo.Config{Dir: memoDir})
	if err != nil {
		t.Fatal(err)
	}
	_, hs1 := newTestServer(t, Config{Memo: m1})
	sp := smokeSpec()
	resp, body := postJSON(t, hs1.URL+"/v1/jobs", sp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitState(t, hs1.URL, st.ID, StateDone, 30*time.Second)
	_, first := getJSON(t, hs1.URL+"/v1/jobs/"+st.ID+"/result")

	m2, err := memo.New(memo.Config{Dir: memoDir}) // fresh process, same store
	if err != nil {
		t.Fatal(err)
	}
	_, hs2 := newTestServer(t, Config{Memo: m2})
	started := obs.GetOrCreateCounter("deesim_cells_started_total")
	s0 := started.Value()
	resp, body = postJSON(t, hs2.URL+"/v1/jobs", sp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("warm submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st2 JobStatus
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}
	waitState(t, hs2.URL, st2.ID, StateDone, 30*time.Second)
	if d := started.Value() - s0; d != 0 {
		t.Errorf("restarted warm run started %d simulations, want 0", d)
	}
	_, second := getJSON(t, hs2.URL+"/v1/jobs/"+st2.ID+"/result")
	if !bytes.Equal(first, second) {
		t.Errorf("warm result differs from the run that populated the cache")
	}
}

// TestWarmRepeatAppendsNoCellRecords is why the whole-spec memo layer
// exists on top of the per-cell one: a warm repeat is served from the
// sweep entry without touching its cells, so its run.journal holds the
// header and nothing else. With cell hits alone every cell would still
// cost one fsync'd done record.
func TestWarmRepeatAppendsNoCellRecords(t *testing.T) {
	s, base := newMemoServer(t, Config{})
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := s.Submit(smokeSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, base, st.ID, StateDone, 30*time.Second)
		ids = append(ids, st.ID)
	}
	cold, err := superv.Load(filepath.Join(s.Dir(ids[0]), "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Done) != 4 {
		t.Fatalf("cold run journaled %d done cells, want 4", len(cold.Done))
	}
	raw, err := os.ReadFile(filepath.Join(s.Dir(ids[1]), "run.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != 1 {
		t.Errorf("warm repeat's run.journal has %d records, want only the header:\n%s", n, raw)
	}
	_, first := getJSON(t, base+"/v1/jobs/"+ids[0]+"/result")
	_, second := getJSON(t, base+"/v1/jobs/"+ids[1]+"/result")
	if !bytes.Equal(first, second) {
		t.Error("warm repeat's result differs from the cold run's")
	}
}

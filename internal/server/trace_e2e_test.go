package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deesim/internal/obs"
)

// TestJobTraceRecordedAndServed drives one traced job through the HTTP
// surface: the submission's traceparent must be persisted into the
// spec, every stage (queue wait, job, cells) must leave span fragments
// under that trace, and GET /v1/tracefrag must serve them back.
func TestJobTraceRecordedAndServed(t *testing.T) {
	frags, err := obs.OpenFragmentLog(filepath.Join(t.TempDir(), "fragments.jsonl"), "deesimd-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frags.Close() })
	_, hs := newTestServer(t, Config{Workers: 1, CellJobs: 2, Frags: frags})

	tc := obs.NewTrace()
	body, _ := json.Marshal(smokeSpec())
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		r, data := getJSON(t, hs.URL+"/v1/jobs/"+st.ID)
		var cur JobStatus
		if r.StatusCode == http.StatusOK {
			_ = json.Unmarshal(data, &cur)
		}
		if cur.State == StateDone {
			break
		}
		if cur.State == StateFailed {
			t.Fatalf("job failed: %s", cur.Error)
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("job never finished (last %+v)", cur)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The fragment file must hold the job's stage spans under the
	// submitted trace.
	all, err := obs.ReadFragments(frags.Path(), tc.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, fr := range all {
		switch {
		case fr.Name == "job "+st.ID:
			counts["job"]++
		case fr.Name == "queue-wait "+st.ID:
			counts["queue-wait"]++
		case strings.HasPrefix(fr.Name, "cell "):
			counts["cell"]++
		}
		if fr.Proc != "deesimd-test" {
			t.Errorf("fragment %q tagged proc %q, want deesimd-test", fr.Name, fr.Proc)
		}
	}
	if counts["job"] != 1 || counts["queue-wait"] != 1 || counts["cell"] != 4 {
		t.Fatalf("fragment counts = %v, want 1 job, 1 queue-wait, 4 cells (all: %+v)", counts, all)
	}

	// And /v1/tracefrag serves exactly the same set, filtered by trace.
	r, data := getJSON(t, hs.URL+"/v1/tracefrag?trace="+tc.TraceID)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("tracefrag: HTTP %d: %s", r.StatusCode, data)
	}
	var served []obs.SpanFragment
	if err := json.Unmarshal(data, &served); err != nil {
		t.Fatal(err)
	}
	if len(served) != len(all) {
		t.Fatalf("tracefrag served %d fragments, file holds %d", len(served), len(all))
	}
	// Other traces stay invisible.
	r, data = getJSON(t, hs.URL+"/v1/tracefrag?trace="+obs.NewTrace().TraceID)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("tracefrag (foreign trace): HTTP %d", r.StatusCode)
	}
	var none []obs.SpanFragment
	_ = json.Unmarshal(data, &none)
	if len(none) != 0 {
		t.Fatalf("tracefrag leaked %d fragments of a foreign trace", len(none))
	}
}

// TestSubmitMintsTraceWhenAbsent: a bare submission (no traceparent
// anywhere) still gets a sampled trace minted at admission, persisted
// in the spec, and recorded — observability is not opt-in.
func TestSubmitMintsTraceWhenAbsent(t *testing.T) {
	frags, err := obs.OpenFragmentLog(filepath.Join(t.TempDir(), "fragments.jsonl"), "deesimd-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { frags.Close() })
	s, _ := newTestServer(t, Config{Workers: 1, CellJobs: 2, Frags: frags})

	st, err := s.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := s.Get(st.ID)
	tc, ok := jb.TraceCtx()
	if !ok {
		t.Fatalf("submitted spec carries no valid trace: %q", jb.Spec.Trace)
	}
	if !tc.Sampled {
		t.Fatal("minted trace is unsampled")
	}
}

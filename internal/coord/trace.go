package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"deesim/internal/obs"
	"deesim/internal/runx"
)

// Fleet-wide trace merge: GET /v1/trace/{id} gathers span fragments
// for one sweep from every registered worker (each serves its own
// fragment file over GET /v1/tracefrag) plus the coordinator's own
// log, aligns each worker's clock against the coordinator's, and
// renders one Chrome-trace/Perfetto timeline. Lanes are processes —
// the coordinator first, then each worker — so "which worker ran
// which cell when" is readable straight off the track names.
//
// Clock alignment needs no extra protocol: the coordinator's lease
// dispatch span and the worker's cell-rpc span both carry the lease
// id, and dispatch happens-before receipt. The median per-worker
// difference between the paired span starts estimates that worker's
// clock skew (plus minimum network delay), and the merge subtracts it
// (obs.EstimateSkew / Lane.Skew).

// traceHTTP is the client used to pull worker fragment files; modest
// timeout, the files are small and the workers are LAN-near.
var traceHTTP = &http.Client{Timeout: 10 * time.Second}

func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sw, ok := c.Get(id)
	var tc obs.TraceContext
	if ok {
		tc, ok = sw.TraceCtx()
	}
	c.mu.Lock()
	workers := make([]WorkerStatus, 0, len(c.workers))
	for _, wk := range c.workers {
		workers = append(workers, WorkerStatus{ID: wk.id, URL: wk.url})
	}
	c.mu.Unlock()
	if !ok {
		c.WriteError(w, runx.Newf(runx.KindInvalidInput, stageCoord, "sweep %q unknown or untraced", id))
		return
	}
	lanes, errs := c.gatherLanes(r.Context(), tc.TraceID, workers)
	if len(lanes) == 0 {
		c.WriteError(w, runx.Newf(runx.KindUnavailable, stageCoord,
			"no span fragments for sweep %s (trace %s) yet: %s", id, tc.TraceID, strings.Join(errs, "; ")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = obs.WriteTimeline(w, lanes)
}

// gatherLanes collects the coordinator's and every worker's fragments
// for a trace and assigns per-worker skew corrections. Unreachable
// workers degrade the timeline (their lane is missing), never fail it;
// their errors are returned for the empty-timeline diagnostic.
func (c *Coordinator) gatherLanes(ctx context.Context, traceID string, workers []WorkerStatus) ([]obs.Lane, []string) {
	var lanes []obs.Lane
	var errs []string

	coordFrags, err := obs.ReadFragments(c.cfg.Frags.Path(), traceID)
	if err != nil {
		errs = append(errs, fmt.Sprintf("coord fragments: %v", err))
	}
	if len(coordFrags) > 0 {
		lanes = append(lanes, obs.Lane{Name: "coord", Frags: coordFrags})
	}
	// The skew reference: lease-dispatch span starts by lease id, on the
	// coordinator's clock.
	ref := make(map[string]int64)
	for _, fr := range coordFrags {
		if l := fr.Attrs["lease"]; l != "" {
			ref[l] = fr.Start
		}
	}
	for _, wk := range workers {
		frags, err := fetchWorkerFragments(ctx, wk.URL, traceID)
		if err != nil {
			errs = append(errs, fmt.Sprintf("worker %s: %v", wk.ID, err))
			continue
		}
		if len(frags) == 0 {
			continue
		}
		remote := make(map[string]int64)
		for _, fr := range frags {
			if l := fr.Attrs["lease"]; l != "" {
				remote[l] = fr.Start
			}
		}
		lanes = append(lanes, obs.Lane{
			Name:  wk.ID + " " + wk.URL,
			Frags: frags,
			Skew:  obs.EstimateSkew(ref, remote),
		})
	}
	return lanes, errs
}

// fetchWorkerFragments pulls one worker's fragment set for a trace.
func fetchWorkerFragments(ctx context.Context, baseURL, traceID string) ([]obs.SpanFragment, error) {
	url := strings.TrimRight(baseURL, "/") + "/v1/tracefrag?trace=" + traceID
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := traceHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var frags []obs.SpanFragment
	if err := json.Unmarshal(body, &frags); err != nil {
		return nil, fmt.Errorf("decode fragments: %w", err)
	}
	return frags, nil
}

package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"deesim/internal/obs"
	"deesim/internal/runx"
)

// maxSpecBytes bounds a submission body; a spec is a few hundred bytes,
// so anything near the cap is garbage or abuse.
const maxSpecBytes = 1 << 20

// Handler returns the deesimd HTTP API:
//
//	POST /v1/jobs             submit a sweep (202, or 429/503 when shed)
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        job status
//	GET  /v1/jobs/{id}/result completed job's result tables (JSON)
//	GET  /healthz             liveness (200 while the process serves)
//	GET  /readyz              readiness (503 while draining)
//	GET  /metrics             Prometheus text exposition of the registry
//	GET  /versionz            build/version info (JSON)
//	GET  /debug/pprof/*       profiling (only when Config.Pprof is set)
//
// Every route runs behind panic isolation, a per-request deadline, and
// the access-log/metrics middleware; errors are JSON bodies {"error":
// ..., "kind": ...} whose kind names a runx kind and whose status
// follows runx.Kind.HTTPStatus.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.wrap("submit", s.handleSubmit))
	// The cell RPC runs a whole simulation inside the request, so it
	// gets the cell deadline (plus shedding slack), not the API one.
	mux.HandleFunc("POST /v1/cells", s.Wrap("cell", s.cfg.CellTimeout+5*time.Second, s.handleCell))
	mux.HandleFunc("GET /v1/jobs", s.wrap("list", s.HandleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.wrap("status", s.HandleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.wrap("result", s.HandleResult))
	mux.HandleFunc("GET /healthz", s.wrap("healthz", HandleHealthz))
	mux.HandleFunc("GET /readyz", s.wrap("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.wrap("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/tracefrag", s.wrap("tracefrag", s.handleTraceFrag))
	mux.HandleFunc("GET /versionz", s.wrap("versionz", HandleVersionz))
	if s.cfg.Pprof {
		// Registered without wrap: a CPU profile legitimately outlives
		// the API request deadline, and pprof output is not JSON.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// wrap is Wrap under the API request deadline.
func (s *Server) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return s.Wrap(endpoint, s.cfg.RequestTimeout, h)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	dec := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		s.WriteError(w, runx.Newf(runx.KindInvalidInput, stageServer, "decode spec: %v", err))
		return
	}
	if err := runx.CtxErr(r.Context(), stageServer); err != nil {
		s.WriteError(w, err)
		return
	}
	st, err := s.SubmitCtx(r.Context(), sp)
	if err != nil {
		s.WriteError(w, err)
		return
	}
	setAccessJobID(r.Context(), st.ID)
	WriteJSON(w, http.StatusAccepted, st)
}

// handleTraceFrag serves this process's span fragments, optionally
// filtered to one trace id (?trace=<32hex>). The coordinator's
// timeline merge calls it on every worker; the response is a JSON
// array of SpanFragment objects (null when this process records none).
func (s *Server) handleTraceFrag(w http.ResponseWriter, r *http.Request) {
	frags, err := obs.ReadFragments(s.cfg.Frags.Path(), r.URL.Query().Get("trace"))
	if err != nil {
		s.WriteError(w, runx.Newf(runx.KindUnknown, stageServer, "read fragments: %v", err))
		return
	}
	WriteJSON(w, http.StatusOK, frags)
}

// ReadyStatus is the /readyz body. Status is the worker tri-state —
// "ready", "busy" (every cell slot occupied; still 200, the process
// serves), or "draining" (503) — reported distinctly so a coordinator
// stops leasing to draining workers instead of burning a lease to find
// out. Degraded marks low-disk mode: the worker reports draining (and
// sheds) until a durable probe write succeeds again, but the flag
// tells operators it is disk pressure, not shutdown.
type ReadyStatus struct {
	Status        string `json:"status"`
	CellsInflight int    `json:"cells_inflight"`
	CellSlots     int    `json:"cell_slots"`
	Degraded      bool   `json:"degraded,omitempty"`
	// Brownout is the current brownout level (0 normal … 3 reads only;
	// see brownout.go), so operators and load balancers can see graceful
	// degradation coming before hard sheds start.
	Brownout int `json:"brownout_level"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := ReadyStatus{
		Status:        s.WorkerState(),
		CellsInflight: s.CellsActive(),
		CellSlots:     s.CellSlots(),
		Degraded:      s.Degraded(),
		Brownout:      s.BrownoutLevel(),
	}
	code := http.StatusOK
	if st.Status == WorkerDraining {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter).Seconds()+0.5)))
	}
	WriteJSON(w, code, st)
}

// handleMetrics serves the registry in Prometheus text exposition
// format. With the default registry this is the whole process in one
// scrape: simulator core, supervisor, and server series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.reg.WritePrometheus(w) // header written; a failed write has no recourse
}

package coord

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"deesim/internal/runx"
	"deesim/internal/server"
)

const maxBodyBytes = 1 << 20

// RegisterRequest is the body of POST /v1/workers: a deesimd instance
// announcing itself to the coordinator.
type RegisterRequest struct {
	URL   string `json:"url"`
	Slots int    `json:"slots"`
}

// RegisterResponse tells the worker its assigned id and the heartbeat
// cadence the coordinator expects.
type RegisterResponse struct {
	ID             string `json:"id"`
	HeartbeatEvery string `json:"heartbeat_every"`
}

// HeartbeatRequest is the body of POST /v1/workers/{id}/heartbeat.
type HeartbeatRequest struct {
	State    string `json:"state"` // ready|busy|draining
	Inflight int    `json:"inflight"`
}

// Handler returns the coordinator HTTP API. The /v1/jobs surface is
// shape-identical to deesimd's, so the existing client (and deesimctl)
// drive a distributed sweep with zero new verbs; /v1/workers is the
// fleet membership surface.
//
//	POST /v1/jobs                    submit a distributed sweep
//	GET  /v1/jobs[,/{id},/{id}/result]  status and results
//	POST /v1/workers                 register a worker
//	POST /v1/workers/{id}/heartbeat  worker liveness + tri-state
//	GET  /v1/workers                 fleet listing
//	GET  /healthz /readyz /metrics /versionz  as on deesimd
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.wrap("submit", c.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", c.wrap("list", c.HandleList))
	mux.HandleFunc("GET /v1/jobs/{id}", c.wrap("status", c.HandleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/result", c.wrap("result", c.HandleResult))
	mux.HandleFunc("POST /v1/workers", c.wrap("register", c.handleRegister))
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.wrap("heartbeat", c.handleHeartbeat))
	mux.HandleFunc("GET /v1/workers", c.wrap("fleet", c.handleFleet))
	mux.HandleFunc("GET /v1/trace/{id}", c.wrap("trace", c.handleTrace))
	mux.HandleFunc("GET /healthz", c.wrap("healthz", server.HandleHealthz))
	mux.HandleFunc("GET /readyz", c.wrap("readyz", c.handleReadyz))
	mux.HandleFunc("GET /metrics", c.wrap("metrics", c.handleMetrics))
	mux.HandleFunc("GET /versionz", c.wrap("versionz", server.HandleVersionz))
	return mux
}

// wrap is the shared request envelope (server.Store.Wrap) under the
// API request deadline.
func (c *Coordinator) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return c.Wrap(endpoint, c.cfg.RequestTimeout, h)
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp server.Spec
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		c.WriteError(w, runx.Newf(runx.KindInvalidInput, stageCoord, "decode spec: %v", err))
		return
	}
	st, err := c.SubmitCtx(r.Context(), sp)
	if err != nil {
		c.WriteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusAccepted, st)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		c.WriteError(w, runx.Newf(runx.KindInvalidInput, stageCoord, "decode register request: %v", err))
		return
	}
	id, every, err := c.RegisterWorker(req.URL, req.Slots)
	if err != nil {
		c.WriteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, RegisterResponse{ID: id, HeartbeatEvery: every.String()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		c.WriteError(w, runx.Newf(runx.KindInvalidInput, stageCoord, "decode heartbeat: %v", err))
		return
	}
	if err := c.HeartbeatWorker(r.PathValue("id"), req.State, req.Inflight); err != nil {
		c.WriteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Fleet())
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(int((c.cfg.RetryAfter).Seconds()+0.5)))
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = c.met.reg.WritePrometheus(w)
}

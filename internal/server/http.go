package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/breaker"
)

// Handler returns the nvmserved HTTP API:
//
//	POST /v1/jobs            submit a JobSpec; ?wait=1 blocks until terminal
//	GET  /v1/jobs/{id}       job status
//	GET  /v1/jobs/{id}/result  result of a completed job
//	GET  /v1/jobs/{id}/trace   NDJSON lifecycle trace of a traced job
//	GET  /v1/jobs/{id}/checkpoint  latest durable snapshot of a preempted job
//	GET  /v1/healthz         liveness + drain state
//	GET  /v1/metrics         expvar-style service metrics
//	GET  /v1/metrics/prom    Prometheus text exposition format
//	POST /v1/sweep           fan a parameter sweep across the pool (NDJSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/metrics/prom", s.handleMetricsProm)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	return mux
}

// WriteJSON writes v as one line of compact JSON with the given status: the
// reply writer of every nvmserved and cluster JSON endpoint. A *Result
// member encodes to exactly its Canonical bytes, so a reply's result can be
// compared, hashed or relayed as it arrives (`jq .` indents it for reading).
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// WriteError writes err as {"error": ...} with the given status. Load
// pushback (503 and 429) carries Retry-After.
func WriteError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, code, errorBody{Error: err.Error()})
}

// submitResponse is the POST /v1/jobs payload: the job status, plus the
// result inline when the job is already terminal (cache hit or ?wait=1).
type submitResponse struct {
	Job    JobStatus `json:"job"`
	Result *Result   `json:"result,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Load shedding: the queue is saturated — back off and retry.
		WriteError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining), errors.Is(err, ErrBreakerOpen):
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("wait") != "" && st.State != JobDone {
		if st, err = s.Wait(r.Context(), st.ID); err != nil {
			WriteError(w, http.StatusGatewayTimeout, err)
			return
		}
	}
	resp := submitResponse{Job: st}
	code := http.StatusAccepted
	if st.State == JobDone {
		code = http.StatusOK
		resp.Result, _, _ = s.Result(st.ID)
	}
	WriteJSON(w, code, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, st, ok := s.Result(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	switch st.State {
	case JobDone:
		WriteJSON(w, http.StatusOK, res)
	case JobQueued, JobRunning:
		// Not terminal yet: report progress, not an error.
		WriteJSON(w, http.StatusAccepted, st)
	default:
		WriteJSON(w, http.StatusConflict, st)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// One probe carries everything an admission decision needs: liveness,
	// drain/breaker state, queue pressure, and cache residency — plus the
	// node identity and resolved listen address so cluster tooling can
	// discover ports when the daemon was started with -addr :0.
	type health struct {
		Status          string `json:"status"`
		NodeID          string `json:"node_id,omitempty"`
		Addr            string `json:"addr,omitempty"`
		Revision        string `json:"revision"`
		Draining        bool   `json:"draining"`
		Breaker         string `json:"breaker"`
		BreakerFailures int    `json:"breaker_failures,omitempty"`
		BreakerOpens    uint64 `json:"breaker_opens,omitempty"`
		Workers         int    `json:"workers"`
		WorkersBusy     int    `json:"workers_busy"`
		QueueDepth      int    `json:"queue_depth"`
		QueueCapacity   int    `json:"queue_capacity"`
		CacheEntries    int    `json:"cache_entries"`
		CacheCapacity   int    `json:"cache_capacity"`
	}
	h := health{Status: "ok", Revision: BuildRevision(), Draining: s.Draining()}
	h.NodeID, h.Addr = s.Identity()
	h.Breaker, h.BreakerFailures, h.BreakerOpens = s.BreakerState()
	h.Workers = s.opts.Workers
	h.WorkersBusy = int(s.busy.Load())
	h.QueueDepth = len(s.queue)
	h.QueueCapacity = s.opts.QueueDepth
	h.CacheEntries = s.cache.Len()
	h.CacheCapacity = s.cache.Cap()
	code := http.StatusOK
	switch {
	case h.Draining:
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	case h.Breaker != breaker.Closed:
		// Tripped (or probing) breaker: alive but degraded. 503 lets load
		// balancers steer traffic away until the engine recovers.
		h.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.MetricsSnapshot())
}

func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.WritePrometheus(w)
}

// handleCheckpoint serves the latest durable snapshot of a job that was
// preempted mid-run (sealed binary, stamped with the job hash). A client can
// carry it to any other nvmserved node — PutCheckpoint there, resubmit the
// same spec — and the job resumes from the last barrier.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	_, st, ok := s.Result(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	snap, ok := s.CheckpointBytes(st.Hash)
	if !ok {
		WriteError(w, http.StatusNotFound,
			errors.New("no checkpoint for this job (finished, never snapshotted, or no state dir)"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap)
}

// handleTrace streams a traced job's lifecycle as NDJSON (one stage event per
// line). Jobs submitted without "trace": true have no trace and get 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	res, st, ok := s.Result(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	switch st.State {
	case JobDone:
	case JobQueued, JobRunning:
		WriteJSON(w, http.StatusAccepted, st)
		return
	default:
		WriteJSON(w, http.StatusConflict, st)
		return
	}
	lt := res.Trace()
	if lt == nil {
		WriteError(w, http.StatusNotFound,
			errors.New("job was not traced; submit with \"trace\": true"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = lt.WriteNDJSON(w)
}

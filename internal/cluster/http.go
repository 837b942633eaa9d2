package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/server"
)

// Handler returns the node's full HTTP surface: the local nvmserved API plus
// the cluster coordinator and peer-protocol routes.
//
//	POST /v1/cluster/jobs         dispatch one job through the ring (waits)
//	POST /v1/cluster/sweep        fan a sweep across the fleet (NDJSON)
//	GET  /v1/cluster/info         membership, peer health, cluster counters
//	GET  /v1/dashboard            embedded fleet dashboard web UI
//	GET  /v1/dashboard/data       fleet-wide dashboard aggregation (JSON)
//	GET  /v1/dashboard/local      this node's dashboard contribution
//	GET  /v1/peer/result/{hash}   canonical result by job hash (peer fill)
//	POST /v1/peer/run             execute a job locally and return its result
//	GET  /v1/peer/ckpt/{hash}     durable job snapshot (preemption migration)
//	HEAD /v1/peer/ckpt/{hash}     snapshot presence probe (anti-entropy dedup)
//	PUT  /v1/peer/ckpt/{hash}     store a replicated job snapshot
//
// The peer routes are the protocol spoken between members; the cluster
// routes are the client-facing coordinator. Every member serves both, so any
// node can coordinate any sweep.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/jobs", n.handleClusterJob)
	mux.HandleFunc("POST /v1/cluster/sweep", n.handleClusterSweep)
	mux.HandleFunc("GET /v1/cluster/info", n.handleClusterInfo)
	mux.HandleFunc("GET /v1/dashboard", n.handleDashboard)
	mux.HandleFunc("GET /v1/dashboard/data", n.handleDashboardData)
	mux.HandleFunc("GET /v1/dashboard/local", n.handleDashboardLocal)
	mux.HandleFunc("GET /v1/peer/result/{hash}", n.handlePeerResult)
	mux.HandleFunc("POST /v1/peer/run", n.handlePeerRun)
	mux.HandleFunc("GET /v1/peer/ckpt/{hash}", n.handlePeerCkptGet)
	mux.HandleFunc("PUT /v1/peer/ckpt/{hash}", n.handlePeerCkptPut)
	mux.Handle("/", n.local.Handler())
	return mux
}

// writeCanonical sends a result as its canonical JSON bytes, so a result
// relayed through any number of peers stays byte-identical to the origin.
// The digest header lets every receiver verify the bytes arrived intact and
// charge the sender when they did not.
func writeCanonical(w http.ResponseWriter, res *server.Result) {
	b := res.Canonical()
	sum := sha256.Sum256(b)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(resultDigestHeader, hex.EncodeToString(sum[:]))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// dispatchResponse is the POST /v1/cluster/jobs payload.
type dispatchResponse struct {
	Route  Route          `json:"route"`
	Result *server.Result `json:"result"`
}

func (n *Node) handleClusterJob(w http.ResponseWriter, r *http.Request) {
	var spec server.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	res, route, err := n.Dispatch(r.Context(), spec)
	if err != nil {
		server.WriteError(w, dispatchErrorCode(err), err)
		return
	}
	server.WriteJSON(w, http.StatusOK, dispatchResponse{Route: route, Result: res})
}

// dispatchErrorCode maps a dispatch failure onto an HTTP status.
func dispatchErrorCode(err error) int {
	switch {
	case errors.Is(err, server.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, server.ErrDraining), errors.Is(err, server.ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		// Compile errors read as client errors; everything else is a fleet
		// failure. Telling them apart cheaply: compile errors never wrap the
		// dispatch-chain sentinel.
		if _, ok := err.(*peerError); ok {
			return http.StatusBadGateway
		}
		return http.StatusBadRequest
	}
}

// clusterSweepPoint is one NDJSON line of a fleet sweep.
type clusterSweepPoint struct {
	Index  int            `json:"index"`
	Value  string         `json:"value"`
	Route  Route          `json:"route"`
	Result *server.Result `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// clusterSweepSummary is the final NDJSON line of a fleet sweep.
type clusterSweepSummary struct {
	SweepDone bool         `json:"sweep_done"`
	Points    int          `json:"points"`
	Completed int          `json:"completed"`
	Failed    int          `json:"failed"`
	Hedged    int          `json:"hedged"`
	Rerouted  int          `json:"rerouted"`
	ElapsedMs float64      `json:"elapsed_ms"`
	Cluster   InfoSnapshot `json:"cluster"`
}

// handleClusterSweep fans one parameter sweep across the fleet: every point
// is dispatched through the ring with bounded parallelism, and the NDJSON
// stream emits points in sweep order as soon as each completes.
func (n *Node) handleClusterSweep(w http.ResponseWriter, r *http.Request) {
	var sr server.SweepRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	specs, vals, err := server.ExpandSweep(sr)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	start := time.Now()
	type pointOut struct {
		res   *server.Result
		route Route
		err   error
	}
	outs := make([]chan pointOut, len(specs))
	sem := make(chan struct{}, n.sweepParallel)
	for i := range specs {
		outs[i] = make(chan pointOut, 1)
		go func(i int) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				outs[i] <- pointOut{err: ctx.Err()}
				return
			}
			res, route, err := n.Dispatch(ctx, specs[i])
			outs[i] <- pointOut{res: res, route: route, err: err}
		}(i)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sum := clusterSweepSummary{SweepDone: true}
	for i := range specs {
		o := <-outs[i]
		pt := clusterSweepPoint{Index: i, Value: vals[i], Route: o.route, Result: o.res}
		sum.Points++
		if o.err != nil {
			pt.Error = o.err.Error()
			sum.Failed++
		} else {
			sum.Completed++
		}
		if o.route.Hedged {
			sum.Hedged++
		}
		if o.route.Reroutes > 0 {
			sum.Rerouted++
		}
		_ = enc.Encode(pt)
		if flusher != nil {
			flusher.Flush()
		}
	}
	sum.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	sum.Cluster = n.Info()
	_ = enc.Encode(sum)
	if flusher != nil {
		flusher.Flush()
	}
}

func (n *Node) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, n.Info())
}

// maxPeerWait caps how long a peer fill may park on the owner's in-flight
// computation; beyond this the requester is better off simulating.
const maxPeerWait = 5 * time.Second

// handlePeerResult serves the local result cache by canonical job hash. With
// ?wait_ms=N it also parks (bounded) on an in-flight local computation of
// the same hash — the owner-side single-flight that absorbs a hot sweep's
// worth of identical fills without stampeding the scheduler.
func (n *Node) handlePeerResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if len(hash) != 64 {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: malformed job hash %q", hash))
		return
	}
	var wait time.Duration
	if ms := r.URL.Query().Get("wait_ms"); ms != "" {
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v < 0 {
			server.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad wait_ms %q", ms))
			return
		}
		wait = time.Duration(v) * time.Millisecond
		if wait > maxPeerWait {
			wait = maxPeerWait
		}
	}
	var res *server.Result
	var ok bool
	if wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		res, ok = n.local.WaitByHash(ctx, hash)
		cancel()
	} else {
		res, ok = n.local.ResultByHash(hash)
	}
	if !ok {
		n.m.peerServeMiss.Add(1)
		server.WriteError(w, http.StatusNotFound, errors.New("result not cached here"))
		return
	}
	n.m.peerServeHits.Add(1)
	writeCanonical(w, res)
}

// handlePeerCkptGet serves this node's durable snapshot of a job hash — the
// read side of preemption migration: the node taking over a killed peer's job
// asks the replicas for the last checkpoint before simulating from scratch.
// HEAD (which the GET pattern also matches) answers presence without reading
// the snapshot — the anti-entropy loop's dedup probe.
func (n *Node) handlePeerCkptGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if len(hash) != 64 {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: malformed job hash %q", hash))
		return
	}
	if r.Method == http.MethodHead {
		if n.local.HasCheckpoint(hash) {
			w.WriteHeader(http.StatusNoContent)
		} else {
			w.WriteHeader(http.StatusNotFound)
		}
		return
	}
	snap, ok := n.local.CheckpointBytes(hash)
	if !ok {
		server.WriteError(w, http.StatusNotFound, errors.New("no snapshot here"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap)
}

// handlePeerCkptPut stores a snapshot replicated from the node running the
// job. The local server validates the sealed envelope before anything
// touches the state dir.
func (n *Node) handlePeerCkptPut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if len(hash) != 64 {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: malformed job hash %q", hash))
		return
	}
	snap, err := io.ReadAll(io.LimitReader(r.Body, maxCkptBytes))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := n.local.PutCheckpoint(hash, snap); err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	n.m.ckptReceived.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerRun executes a job on this node's scheduler and returns the
// canonical result: the receiving end of sharded and hedged dispatch. Load
// pushback surfaces as 429/503 so the dispatcher reroutes instead of piling
// on; a caller disconnect (hedge lost, coordinator gone) cancels the job.
func (n *Node) handlePeerRun(w http.ResponseWriter, r *http.Request) {
	var spec server.JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	n.m.peerRuns.Add(1)
	// A checkpointing job may have been preempted elsewhere: pull the latest
	// replicated snapshot before running so the job resumes, not restarts.
	if p, err := spec.Compile(); err == nil {
		n.recoverCkpt(r.Context(), p)
	}
	// NoFill: this job was routed HERE by a dispatcher (shard owner, hedge,
	// or reroute); consulting the fill hook would bounce it back toward the
	// owner — the slow or dead node the dispatcher is often escaping.
	st, err := n.local.SubmitNoFill(r.Context(), spec)
	switch {
	case errors.Is(err, server.ErrQueueFull):
		server.WriteError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, server.ErrDraining), errors.Is(err, server.ErrBreakerOpen):
		server.WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	fin, err := n.local.Wait(r.Context(), st.ID)
	if err != nil {
		server.WriteError(w, http.StatusGatewayTimeout, err)
		return
	}
	switch fin.State {
	case server.JobDone:
		res, _, _ := n.local.Result(st.ID)
		writeCanonical(w, res)
	case server.JobCanceled:
		server.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("job canceled: %s", fin.Error))
	default:
		server.WriteError(w, http.StatusInternalServerError, fmt.Errorf("job failed: %s", fin.Error))
	}
}

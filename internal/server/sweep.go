package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/exp"
)

// SweepRequest fans one parameter sweep across the worker pool: the base
// job is cloned once per value with Parameter overridden. Values are strings
// so byte sizes keep their suffixes ("4K"); numeric parameters are parsed.
type SweepRequest struct {
	Base      JobSpec  `json:"base"`
	Parameter string   `json:"parameter"`
	Values    []string `json:"values,omitempty"`
	// FromScale fills Values for the "region" parameter from a named
	// experiment scale's pointer-chase sweep (the Fig. 5–7 regions in
	// internal/exp): "quick" or "paper".
	FromScale string `json:"from_scale,omitempty"`
}

// maxSweepPoints bounds one sweep request.
const maxSweepPoints = 256

// sweepPoint is one NDJSON line of the streamed response.
type sweepPoint struct {
	Index  int       `json:"index"`
	Value  string    `json:"value"`
	Job    JobStatus `json:"job"`
	Result *Result   `json:"result,omitempty"`
}

// sweepSummary is the final NDJSON line.
type sweepSummary struct {
	SweepDone bool            `json:"sweep_done"`
	Points    int             `json:"points"`
	Completed int             `json:"completed"`
	Cached    int             `json:"cached"`
	Failed    int             `json:"failed"`
	ElapsedMs float64         `json:"elapsed_ms"`
	Metrics   MetricsSnapshot `json:"metrics"`
}

// resolveValues expands FromScale and validates the value list.
func (sr *SweepRequest) resolveValues() ([]string, error) {
	vals := sr.Values
	if sr.FromScale != "" {
		if len(vals) > 0 {
			return nil, errors.New("sweep: give values or from_scale, not both")
		}
		if sr.Parameter != "region" {
			return nil, fmt.Errorf("sweep: from_scale applies to the region parameter, not %q", sr.Parameter)
		}
		sc, ok := exp.ScaleByName(sr.FromScale)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown scale %q (want quick or paper)", sr.FromScale)
		}
		for _, reg := range sc.Regions {
			if reg <= maxRegionBytes {
				vals = append(vals, strconv.FormatUint(reg, 10))
			}
		}
	}
	if len(vals) == 0 {
		return nil, errors.New("sweep: no values")
	}
	if len(vals) > maxSweepPoints {
		return nil, fmt.Errorf("sweep: %d points exceeds limit %d", len(vals), maxSweepPoints)
	}
	return vals, nil
}

// applySweepValue returns base with parameter overridden to val.
func applySweepValue(base JobSpec, parameter, val string) (JobSpec, error) {
	atoi := func() (int, error) {
		n, err := strconv.Atoi(val)
		if err != nil {
			return 0, fmt.Errorf("sweep: value %q for %s: %v", val, parameter, err)
		}
		return n, nil
	}
	var err error
	switch parameter {
	case "region":
		base.Workload.Region = val
	case "bytes":
		base.Workload.Bytes = val
	case "footprint":
		base.Workload.Footprint = val
	case "op":
		base.Workload.Op = val
	case "name":
		base.Workload.Name = val
	case "instructions":
		base.Workload.Instructions, err = atoi()
	case "dimms":
		base.Config.DIMMs, err = atoi()
	case "window":
		base.Window, err = atoi()
	case "seed":
		var n uint64
		n, err = strconv.ParseUint(val, 10, 64)
		base.Seed = n
	default:
		err = fmt.Errorf("sweep: unknown parameter %q (region, bytes, footprint, op, name, instructions, dimms, window, seed)", parameter)
	}
	return base, err
}

// ExpandSweep resolves a sweep request into one validated spec per point and
// the aligned value list. Every point is pre-validated so a bad sweep fails
// whole, before any output has been streamed. Shared by the local NDJSON
// sweep endpoint and the cluster coordinator's fleet sweep.
func ExpandSweep(sr SweepRequest) ([]JobSpec, []string, error) {
	vals, err := sr.resolveValues()
	if err != nil {
		return nil, nil, err
	}
	specs := make([]JobSpec, len(vals))
	for i, v := range vals {
		spec, err := applySweepValue(sr.Base, sr.Parameter, v)
		if err != nil {
			return nil, nil, err
		}
		if _, err := spec.Compile(); err != nil {
			return nil, nil, fmt.Errorf("sweep point %d (%s=%s): %v", i, sr.Parameter, v, err)
		}
		specs[i] = spec
	}
	return specs, vals, nil
}

// handleSweep streams NDJSON: one line per sweep point as soon as that point
// completes (in sweep order), then a summary line with the service metrics.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var sr SweepRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	specs, vals, err := ExpandSweep(sr)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}

	ctx := r.Context()
	start := time.Now()
	// The submitter goroutine keeps the queue fed (retrying while full) and
	// hands job IDs over in sweep order; the response loop streams each
	// point the moment it finishes.
	type submitted struct {
		id  string
		err error
	}
	ids := make(chan submitted, len(specs))
	go func() {
		defer close(ids)
		for _, spec := range specs {
			for {
				// Submitter-context submission: a client disconnect cancels
				// every still-pending point instead of orphaning them.
				st, err := s.SubmitCtx(ctx, spec)
				if err == nil {
					ids <- submitted{id: st.ID}
					break
				}
				if !errors.Is(err, ErrQueueFull) {
					ids <- submitted{err: err}
					return
				}
				select {
				case <-ctx.Done():
					ids <- submitted{err: ctx.Err()}
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sum := sweepSummary{SweepDone: true}
	i := 0
	for sub := range ids {
		if sub.err != nil {
			// Streaming already began: emit the failure as a point line.
			_ = enc.Encode(errorBody{Error: sub.err.Error()})
			break
		}
		st, err := s.Wait(ctx, sub.id)
		if err != nil {
			_ = enc.Encode(errorBody{Error: err.Error()})
			break
		}
		pt := sweepPoint{Index: i, Value: vals[i], Job: st}
		sum.Points++
		switch st.State {
		case JobDone:
			sum.Completed++
			if st.Cached {
				sum.Cached++
			}
			pt.Result, _, _ = s.Result(sub.id)
		default:
			sum.Failed++
		}
		_ = enc.Encode(pt)
		if flusher != nil {
			flusher.Flush()
		}
		i++
	}
	sum.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	sum.Metrics = s.MetricsSnapshot()
	_ = enc.Encode(sum)
	if flusher != nil {
		flusher.Flush()
	}
}

package server

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/breaker"
	"repro/internal/obs"
)

// RegisterProm appends an extra collector rendered at the end of every
// /v1/metrics/prom exposition. The cluster layer uses this to merge its
// dispatch/hedge/peer counters into the node's single scrape target.
// Register before serving traffic.
func (s *Server) RegisterProm(fn func(io.Writer) error) {
	s.mu.Lock()
	s.extraProm = append(s.extraProm, fn)
	s.mu.Unlock()
}

// WritePrometheus renders the service metrics in Prometheus text exposition
// format (version 0.0.4): service counters and gauges, the job wall-latency
// histogram, one histogram family per merged simulator stage-latency
// distribution (labelled by stage name, e.g. stage="dimm0/media/read_ns"),
// and any collectors added with RegisterProm.
func (s *Server) WritePrometheus(w io.Writer) error {
	snap := s.MetricsSnapshot()
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gaugeI := func(name, help string, v int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	fmt.Fprintf(&b, "# HELP nvmserved_build_info Build identity (VCS revision) of this binary.\n"+
		"# TYPE nvmserved_build_info gauge\nnvmserved_build_info{revision=%q} 1\n", BuildRevision())
	gaugeF("nvmserved_uptime_seconds", "Seconds since the server started.", snap.UptimeSeconds)
	gaugeI("nvmserved_workers", "Worker pool size.", snap.Workers)
	gaugeI("nvmserved_workers_busy", "Workers currently executing a job.", snap.WorkersBusy)
	gaugeF("nvmserved_worker_utilization", "Fraction of worker-time spent executing jobs.", snap.WorkerUtilization)
	gaugeI("nvmserved_queue_depth", "Jobs waiting in the queue.", snap.QueueDepth)
	gaugeI("nvmserved_queue_capacity", "Queue capacity.", snap.QueueCapacity)
	counter("nvmserved_jobs_accepted_total", "Jobs accepted for execution or served from cache.", snap.JobsAccepted)
	counter("nvmserved_jobs_completed_total", "Jobs that finished successfully.", snap.JobsCompleted)
	counter("nvmserved_jobs_failed_total", "Jobs that finished with an error.", snap.JobsFailed)
	counter("nvmserved_jobs_canceled_total", "Jobs canceled or timed out.", snap.JobsCanceled)
	counter("nvmserved_jobs_cached_total", "Submissions served entirely from the result cache.", snap.JobsCached)
	counter("nvmserved_rejected_queue_full_total", "Submissions rejected because the queue was full.", snap.RejectedQueueFull)
	counter("nvmserved_rejected_draining_total", "Submissions rejected during drain.", snap.RejectedDraining)
	counter("nvmserved_rejected_breaker_total", "Submissions rejected by the open circuit breaker.", snap.RejectedBreaker)
	counter("nvmserved_job_retries_total", "Retry attempts after transient faults.", snap.JobRetries)
	counter("nvmserved_jobs_peer_filled_total", "Jobs satisfied by a peer cache fill instead of a local run.", snap.JobsPeerFilled)
	counter("nvmserved_jobs_resumed_total", "Jobs resumed from a durable checkpoint instead of restarting.", snap.JobsResumed)
	counter("nvmserved_jobs_warm_started_total", "Jobs forked from a cached warm-start snapshot.", snap.JobsWarmStarted)
	counter("nvmserved_ckpt_saves_total", "Checkpoint snapshots written at barrier cuts.", snap.CkptSaves)
	counter("nvmserved_job_panics_total", "Jobs that panicked.", snap.JobPanics)
	counter("nvmserved_workers_replaced_total", "Worker goroutines replaced after a panic.", snap.WorkersReplaced)
	counter("nvmserved_breaker_opens_total", "Times the circuit breaker opened.", snap.BreakerOpens)
	counter("nvmserved_cache_hits_total", "Result cache hits.", snap.CacheHits)
	counter("nvmserved_cache_misses_total", "Result cache misses.", snap.CacheMisses)
	gaugeI("nvmserved_cache_entries", "Results resident in the cache.", snap.CacheEntries)
	fmt.Fprintf(&b, "# HELP nvmserved_breaker_state Circuit breaker state (one-hot by state label).\n# TYPE nvmserved_breaker_state gauge\n")
	for _, state := range []string{breaker.Closed, breaker.Open, breaker.HalfOpen} {
		v := 0
		if snap.BreakerState == state {
			v = 1
		}
		fmt.Fprintf(&b, "nvmserved_breaker_state{state=%q} %d\n", state, v)
	}

	// Job wall-latency histogram (seconds, per Prometheus convention).
	s.metrics.mu.Lock()
	wall := obs.NewHistogram(s.metrics.latencyHist.Bounds())
	wall.Merge(s.metrics.latencyHist)
	s.metrics.mu.Unlock()
	writePromHistogram(&b, "nvmserved_job_latency_seconds",
		"Wall-clock latency of completed jobs.", "", "", wall, 1e-9)

	// Per-stage simulated latency histograms (nanoseconds of simulated time).
	stages := s.metrics.stageSnapshot()
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintf(&b, "# HELP nvmserved_stage_latency_ns Simulated per-stage latency distribution across completed jobs.\n")
		fmt.Fprintf(&b, "# TYPE nvmserved_stage_latency_ns histogram\n")
		for _, name := range names {
			writePromHistogram(&b, "nvmserved_stage_latency_ns", "", "stage", name, stages[name], 1)
		}
	}

	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	s.mu.Lock()
	extras := append([]func(io.Writer) error(nil), s.extraProm...)
	s.mu.Unlock()
	for _, fn := range extras {
		if err := fn(w); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram series. scale converts recorded
// values to the exposed unit (1e-9 for ns -> seconds). An empty help string
// suppresses the HELP/TYPE header (already written for labelled families).
func writePromHistogram(b *strings.Builder, name, help, labelKey, labelVal string, h *obs.Histogram, scale float64) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	label := func(le string) string {
		if labelKey == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{%s=%q,le=%q}", labelKey, labelVal, le)
	}
	suffix := ""
	if labelKey != "" {
		suffix = fmt.Sprintf("{%s=%q}", labelKey, labelVal)
	}
	var cum uint64
	bounds := h.Bounds()
	counts := h.Counts()
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, label(fmt.Sprintf("%g", float64(bound)*scale)), cum)
	}
	cum += counts[len(bounds)]
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, label("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %g\n", name, suffix, float64(h.Sum())*scale)
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, h.N())
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/fault"
)

// faultSpec returns a small chase job with the given fault spec attached.
func faultSpec(seed uint64, f *fault.Spec) JobSpec {
	s := chaseSpec("16K", seed)
	s.Fault = f
	return s
}

// TestPanicJobFailsAndDaemonSurvives is the headline robustness regression:
// a job that panics the simulation engine must come back as a failed job
// carrying the panic value and stack, the worker must be replaced, and the
// daemon must keep serving subsequent jobs.
func TestPanicJobFailsAndDaemonSurvives(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8, CacheEntries: -1, BreakerThreshold: -1})
	defer s.Shutdown(5 * time.Second)

	st, err := s.Submit(faultSpec(1, &fault.Spec{CrashAccess: 5}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != JobFailed {
		t.Fatalf("panicking job state = %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "job panicked") ||
		!strings.Contains(st.Error, fault.CrashPanicMsg(5)) {
		t.Errorf("job error missing panic context: %q", st.Error)
	}
	if !strings.Contains(st.Error, "runJob") {
		t.Errorf("job error missing stack trace: %q", st.Error)
	}

	// The pool had exactly one worker; if it died without replacement this
	// submission would hang forever.
	st2, err := s.Submit(chaseSpec("16K", 2))
	if err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	if st2 = waitDone(t, s, st2.ID); st2.State != JobDone {
		t.Fatalf("job after panic state = %q, want done (err %q)", st2.State, st2.Error)
	}

	m := s.MetricsSnapshot()
	if m.JobPanics < 1 {
		t.Errorf("job_panics = %d, want >= 1", m.JobPanics)
	}
	if m.WorkersReplaced < 1 {
		t.Errorf("workers_replaced = %d, want >= 1", m.WorkersReplaced)
	}
}

// TestTransientFaultRetriedToSuccess pins the retry policy: a transient
// injected fault fails attempt 0 and clears on attempt 1, so the job
// completes with at least one recorded retry. A permanent fault must not be
// retried and must surface as a typed media error.
func TestTransientFaultRetriedToSuccess(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8, CacheEntries: -1,
		MaxRetries: 2, RetryBaseDelay: time.Millisecond, BreakerThreshold: -1})
	defer s.Shutdown(5 * time.Second)

	st, err := s.Submit(faultSpec(3, &fault.Spec{PoisonRate: 1, PoisonTransient: true}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st = waitDone(t, s, st.ID); st.State != JobDone {
		t.Fatalf("transient job state = %q, want done (err %q)", st.State, st.Error)
	}
	if m := s.MetricsSnapshot(); m.JobRetries < 1 {
		t.Errorf("job_retries = %d, want >= 1", m.JobRetries)
	}

	st, err = s.Submit(faultSpec(4, &fault.Spec{PoisonRate: 1}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st = waitDone(t, s, st.ID); st.State != JobFailed {
		t.Fatalf("permanent-fault job state = %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "media read error") {
		t.Errorf("permanent fault error = %q, want a media read error", st.Error)
	}
}

// TestBreakerTripsAndRecovers drives the circuit breaker through its full
// cycle over the HTTP API: consecutive engine failures open it (healthz goes
// degraded, submissions shed with 503 + Retry-After), the cooldown admits a
// probe, and a successful probe closes it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8, CacheEntries: -1,
		BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond})

	for seed := uint64(10); seed < 12; seed++ {
		st, err := s.Submit(faultSpec(seed, &fault.Spec{PoisonRate: 1}))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if st = waitDone(t, s, st.ID); st.State != JobFailed {
			t.Fatalf("fault job state = %q, want failed", st.State)
		}
	}

	if state, _, opens := s.BreakerState(); state != breaker.Open || opens != 1 {
		t.Fatalf("breaker = %q opens=%d, want open opens=1", state, opens)
	}
	if _, err := s.Submit(chaseSpec("16K", 20)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("submit with open breaker: err = %v, want ErrBreakerOpen", err)
	}

	resp := postJSON(t, ts.URL+"/v1/jobs", chaseSpec("16K", 21))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("open-breaker submit status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open-breaker 503 without Retry-After")
	}
	resp.Body.Close()

	r, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded healthz status = %d, want 503", r.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		Breaker string `json:"breaker"`
	}
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if h.Status != "degraded" || h.Breaker != breaker.Open {
		t.Errorf("healthz = %+v, want status degraded, breaker open", h)
	}

	// Past the cooldown a single clean probe is admitted; its success closes
	// the circuit.
	time.Sleep(60 * time.Millisecond)
	st, err := s.Submit(chaseSpec("16K", 22))
	if err != nil {
		t.Fatalf("probe submit: %v", err)
	}
	if st = waitDone(t, s, st.ID); st.State != JobDone {
		t.Fatalf("probe state = %q, want done (err %q)", st.State, st.Error)
	}
	if state, _, _ := s.BreakerState(); state != breaker.Closed {
		t.Fatalf("breaker after probe = %q, want closed", state)
	}
	r2, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusOK {
		t.Errorf("recovered healthz status = %d, want 200", r2.StatusCode)
	}
	r2.Body.Close()
}

// The breaker state-machine unit test lives in internal/breaker, where the
// implementation moved when the cluster layer started sharing it.

// TestPowerFailJobReturnsCrashReport runs a power-fail job end to end through
// the service: the result carries a consistent crash report instead of
// steady-state bandwidth, and is byte-identical across submissions (cache off).
func TestPowerFailJobReturnsCrashReport(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 8, CacheEntries: -1})
	defer s.Shutdown(5 * time.Second)

	spec := JobSpec{
		Workload: WorkloadSpec{Kind: KindSeq, Bytes: "16K", Op: "store-nt"},
		Seed:     7,
		Fault:    &fault.Spec{PowerFailCycle: 4000},
	}
	var first []byte
	for i := 0; i < 2; i++ {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if st = waitDone(t, s, st.ID); st.State != JobDone {
			t.Fatalf("power-fail job state = %q, want done (err %q)", st.State, st.Error)
		}
		res, _, _ := s.Result(st.ID)
		if res == nil || res.Crash == nil {
			t.Fatal("power-fail result missing crash report")
		}
		if !res.Crash.Consistent {
			t.Fatalf("crash report inconsistent: %+v", res.Crash.Mismatches)
		}
		if i == 0 {
			first = res.Canonical()
		} else if string(first) != string(res.Canonical()) {
			t.Error("power-fail results differ across runs")
		}
	}

	// Memory mode cannot honor the ADR contract; the spec must be rejected at
	// compile time.
	bad := spec
	bad.Config.Mode = "memory"
	if _, err := s.Submit(bad); err == nil {
		t.Error("memory-mode power-fail spec accepted, want compile error")
	}
}

// waitDone blocks until the job reaches a terminal state.
func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/ckpt"
	"repro/internal/fault"
)

// Submission errors. The HTTP layer maps ErrQueueFull to 429 Too Many
// Requests (load shedding: back off and retry) and the other two to 503
// Service Unavailable.
var (
	// ErrQueueFull reports that the bounded job queue has no space.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining reports that the server is shutting down.
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrBreakerOpen reports that the engine circuit breaker is open after
	// consecutive engine failures.
	ErrBreakerOpen = errors.New("server: circuit breaker open, engine failing")
)

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is one tracked submission. Mutable fields are guarded by the server's
// registry lock; read them through Status / Result / Wait.
type Job struct {
	id     string
	hash   string
	plan   *Plan
	state  JobState
	err    string
	cached bool
	peer   bool // satisfied by a peer cache fill, not a local run
	noFill bool // dispatch traffic: never consult the fill hook
	result *Result
	// resumedFrom is the access index the run restarted at after a restore
	// (0 = ran from the beginning); checkpoints counts snapshots persisted
	// during the run; warmStarted marks a run that skipped its warmup prefix
	// via a cached warm snapshot.
	resumedFrom int
	checkpoints int
	warmStarted bool
	submitted   time.Time
	started     time.Time
	finished    time.Time
	done        chan struct{}
	// ctx, when non-nil, cancels the job if the submitter goes away while it
	// is still queued or running (sweep clients disconnecting mid-stream,
	// hedged cluster dispatches losing the race).
	ctx context.Context
}

// JobStatus is the JSON view of a job's lifecycle.
type JobStatus struct {
	ID     string   `json:"id"`
	Hash   string   `json:"hash"`
	State  JobState `json:"state"`
	Cached bool     `json:"cached,omitempty"`
	// PeerFilled marks a job whose result was fetched from the owning
	// cluster peer's cache instead of being simulated locally.
	PeerFilled bool   `json:"peer_filled,omitempty"`
	Error      string `json:"error,omitempty"`
	// ResumedFrom is the access index a restored run restarted at (absent
	// when the job ran from the beginning).
	ResumedFrom int `json:"resumed_from,omitempty"`
	// Checkpoints counts snapshots persisted while the job ran.
	Checkpoints int `json:"checkpoints,omitempty"`
	// WarmStarted marks a run that skipped its warmup prefix by restoring a
	// cached warm snapshot.
	WarmStarted bool `json:"warm_started,omitempty"`
	// Regime is the named bottleneck regime from the result's verdict
	// (present once the job is done and the run produced a verdict).
	Regime   string  `json:"regime,omitempty"`
	QueuedMs float64 `json:"queued_ms"`
	RunMs    float64 `json:"run_ms"`
}

// Options configures a Server. Zero fields take defaults.
type Options struct {
	// Workers is the pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the FIFO job queue (default 64).
	QueueDepth int
	// CacheEntries sizes the LRU result cache (default 256; negative
	// disables caching).
	CacheEntries int
	// JobTimeout bounds each job's execution, all retry attempts included
	// (default 60s).
	JobTimeout time.Duration
	// MaxRetries bounds extra attempts after a transient fault (default 2;
	// negative disables retries).
	MaxRetries int
	// RetryBaseDelay is the first retry backoff (default 10ms). Successive
	// retries double it, capped at RetryMaxDelay, with up to 50% jitter.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff (default 500ms).
	RetryMaxDelay time.Duration
	// BreakerThreshold is the consecutive engine-failure count that opens
	// the circuit breaker (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting a
	// probe (default 5s).
	BreakerCooldown time.Duration
	// Handicap adds an artificial wall-clock delay before every locally
	// simulated job (peer fills are not delayed). It exists to stand in for a
	// slow or overloaded node in cluster hedging demos and tests; results are
	// unaffected because they carry no wall-clock quantities. Default 0.
	Handicap time.Duration
	// StateDir, when non-empty, makes the daemon preemptible: checkpoint
	// snapshots of in-progress jobs and the result cache are persisted there
	// (atomic writes), and on startup finished results are reloaded and
	// interrupted jobs resume from their last snapshot when resubmitted.
	// Empty disables durability.
	StateDir string
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 1
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.CacheEntries < 0 {
		o.CacheEntries = 0
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 60 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 10 * time.Millisecond
	}
	if o.RetryMaxDelay <= 0 {
		o.RetryMaxDelay = 500 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	return o
}

// Server is the nvmserved core: a bounded FIFO queue feeding a fixed worker
// pool, a job registry, an LRU result cache, and service metrics. Create one
// with New and stop it with Shutdown.
type Server struct {
	opts    Options
	metrics *Metrics
	cache   *lruCache[*Result]
	// brk is the engine circuit breaker: BreakerThreshold consecutive
	// engine failures (panics, faulted runs) open it, and submissions are
	// shed at the door until BreakerCooldown passes. State is surfaced on
	// /v1/healthz.
	brk *breaker.Breaker

	queue     chan *Job
	wg        sync.WaitGroup
	runCtx    context.Context
	runCancel context.CancelFunc
	busy      atomic.Int32

	state *stateStore
	warm  *lruCache[[]byte]

	mu        sync.Mutex
	jobs      map[string]*Job
	inflight  map[string]*Job // hash -> first active (queued/running) job
	nextID    uint64
	draining  bool
	fill      FillFunc
	ckptRepl  CkptReplicateFunc
	nodeID    string
	addr      string
	extraProm []func(io.Writer) error
}

// CkptReplicateFunc pushes a freshly persisted job snapshot somewhere safer
// than this node — in a cluster, to the hash's ring successor — so a job
// survives losing the node that was running it. It must not block the worker
// for long; failures are invisible (replication is best-effort on top of the
// local durable copy).
type CkptReplicateFunc func(hash string, snap []byte)

// SetCkptReplicate installs the snapshot replication hook. Install before
// serving traffic.
func (s *Server) SetCkptReplicate(f CkptReplicateFunc) {
	s.mu.Lock()
	s.ckptRepl = f
	s.mu.Unlock()
}

// FillFunc tries to satisfy a job from somewhere cheaper than simulating —
// in a cluster, from the owning peer's result cache. It must be fast (bounded
// by its own timeout well under the job timeout) and return ok=false on any
// miss or error; the job then simulates locally as usual.
type FillFunc func(ctx context.Context, hash string) (*Result, bool)

// SetFill installs the cache-fill hook. Install before serving traffic.
func (s *Server) SetFill(f FillFunc) {
	s.mu.Lock()
	s.fill = f
	s.mu.Unlock()
}

// SetIdentity records the node id and resolved listen address surfaced on
// /v1/healthz so peers and load generators can discover both from one probe.
func (s *Server) SetIdentity(nodeID, addr string) {
	s.mu.Lock()
	s.nodeID = nodeID
	s.addr = addr
	s.mu.Unlock()
}

// Identity returns the node id and resolved listen address (may be empty
// outside cluster mode).
func (s *Server) Identity() (nodeID, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodeID, s.addr
}

// New starts a Server with opts. A StateDir that cannot be created is fatal
// (panic): a daemon that silently dropped durability would lie about the
// preemption guarantees it advertises.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	state, err := newStateStore(opts.StateDir)
	if err != nil {
		panic(err.Error())
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		metrics:   newMetrics(),
		cache:     newLRUCache[*Result](opts.CacheEntries),
		brk:       breaker.New(opts.BreakerThreshold, opts.BreakerCooldown),
		state:     state,
		warm:      newLRUCache[[]byte](warmCacheCap),
		queue:     make(chan *Job, opts.QueueDepth),
		runCtx:    ctx,
		runCancel: cancel,
		jobs:      make(map[string]*Job),
		inflight:  make(map[string]*Job),
	}
	// Reload results finished before the previous shutdown: resubmitting the
	// same spec hits the cache instead of re-simulating.
	for _, e := range state.LoadResults() {
		var res Result
		if json.Unmarshal(e.Result, &res) == nil && res.Hash == e.Hash {
			s.cache.Put(e.Hash, &res)
		}
	}
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Options returns the effective (defaulted) options.
func (s *Server) Options() Options { return s.opts }

// Submit validates and enqueues a job. A submission whose hash is resident
// in the result cache completes immediately without queueing. The returned
// status is a snapshot; poll with Status or block with Wait.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	return s.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit with a submitter context: if ctx is canceled while the
// job is still queued or running, the job is canceled too (and counts toward
// the jobs_canceled metric). Terminal jobs are unaffected. Sweeps use this so
// a client disconnecting mid-stream does not leave the pool grinding through
// orphaned points.
func (s *Server) SubmitCtx(ctx context.Context, spec JobSpec) (JobStatus, error) {
	return s.submit(ctx, spec, false)
}

// SubmitNoFill is SubmitCtx for cluster dispatch traffic (peer runs): the
// job must be executed here, never satisfied through the peer fill hook. A
// dispatcher only sends a job off-owner when the owner is slow or down, so
// asking the owner again from inside the run would boomerang a hedge or a
// reroute right back into the straggler it was escaping.
func (s *Server) SubmitNoFill(ctx context.Context, spec JobSpec) (JobStatus, error) {
	return s.submit(ctx, spec, true)
}

func (s *Server) submit(ctx context.Context, spec JobSpec, noFill bool) (JobStatus, error) {
	p, err := spec.Compile()
	if err != nil {
		return JobStatus{}, err
	}
	if ok, retryAfter := s.brk.Allow(); !ok {
		s.metrics.rejectBreaker()
		return JobStatus{}, fmt.Errorf("%w (retry after %s)", ErrBreakerOpen, retryAfter.Round(time.Second))
	}
	j := &Job{
		hash:      p.Hash(),
		plan:      p,
		state:     JobQueued,
		noFill:    noFill,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if ctx != context.Background() {
		j.ctx = ctx
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.rejectDraining()
		return JobStatus{}, ErrDraining
	}
	s.nextID++
	j.id = fmt.Sprintf("j%06d", s.nextID)
	if res, ok := s.cache.Get(j.hash); ok {
		now := time.Now()
		j.state, j.result, j.cached = JobDone, res, true
		j.started, j.finished = now, now
		close(j.done)
		s.jobs[j.id] = j
		st := j.statusLocked()
		s.mu.Unlock()
		s.metrics.jobAccepted()
		s.metrics.cacheHit()
		return st, nil
	}
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		// First active job for this hash: record it so peers asking for the
		// hash can wait on the in-flight computation (single-flight on the
		// owner) instead of stampeding or missing.
		if _, busy := s.inflight[j.hash]; !busy {
			s.inflight[j.hash] = j
		}
		st := j.statusLocked()
		s.mu.Unlock()
		s.metrics.jobAccepted()
		s.metrics.cacheMiss()
		return st, nil
	default:
		s.mu.Unlock()
		s.metrics.rejectFull()
		return JobStatus{}, ErrQueueFull
	}
}

// worker drains the queue until it closes. Each worker owns one Runner, so
// every job executes on an isolated engine + system.
//
// A panic escaping a job (a wedged or crashed simulation) is recovered here:
// the job was already finalized as failed by runJob's defer, and this worker
// replaces itself with a fresh goroutine — and a fresh Runner — inheriting
// its WaitGroup slot, so the pool never shrinks and the daemon keeps serving.
func (s *Server) worker() {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.workerReplaced()
			go s.worker()
			return
		}
		s.wg.Done()
	}()
	rn := NewRunner()
	for j := range s.queue {
		s.runJob(rn, j)
	}
}

func (s *Server) runJob(rn *Runner, j *Job) {
	s.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	fill := s.fill
	repl := s.ckptRepl
	s.mu.Unlock()

	s.busy.Add(1)
	start := time.Now()
	ctx, cancel := context.WithTimeout(s.runCtx, s.opts.JobTimeout)
	if j.ctx != nil {
		// Tie the run to the submitter: if they disconnect while we are
		// queued or running, cancel instead of burning a worker on a result
		// nobody will read.
		stop := context.AfterFunc(j.ctx, cancel)
		defer stop()
		if err := j.ctx.Err(); err != nil {
			cancel()
		}
	}

	// Checkpoint I/O for preemptible plans: resume from the durable snapshot
	// if one survived a previous daemon (or a peer handoff), otherwise fork
	// from a cached warm snapshot when the plan shares a warmup prefix.
	// Snapshots captured at barriers land in the state dir and, in a
	// cluster, on the hash's ring successor.
	var cio *CkptIO
	if j.plan.CkptEvery > 0 || j.plan.Warmup != nil {
		cio = &CkptIO{}
		if snap, ok := s.state.LoadCkpt(j.hash); ok {
			cio.Resume = snap
		} else if j.plan.Warmup != nil {
			if snap, ok := s.warm.Get(j.plan.WarmHash()); ok {
				cio.WarmStart = snap
			}
		}
		if j.plan.CkptEvery > 0 && (s.state.enabled() || repl != nil) {
			hash := j.hash
			cio.Sink = func(idx int, snap []byte) error {
				if err := s.state.SaveCkpt(hash, snap); err != nil {
					return err
				}
				if repl != nil {
					repl(hash, snap)
				}
				return nil
			}
		}
		if j.plan.Warmup != nil {
			warmHash := j.plan.WarmHash()
			cio.WarmSink = func(snap []byte) {
				if snap != nil {
					s.warm.Put(warmHash, snap)
				}
			}
		}
	}

	var res *Result
	var err error
	defer func() {
		cancel()
		wall := time.Since(start)
		s.busy.Add(-1)
		s.metrics.workerBusy(wall)
		if cio != nil {
			s.mu.Lock()
			j.resumedFrom = cio.ResumedFrom
			j.checkpoints = cio.Saves
			j.warmStarted = cio.WarmStarted
			s.mu.Unlock()
			if cio.ResumedFrom > 0 {
				s.metrics.jobResumed()
			}
			if cio.WarmStarted {
				s.metrics.jobWarmStarted()
			}
			s.metrics.ckptSaved(cio.Saves)
		}
		if r := recover(); r != nil {
			// A panic unwound out of the run (the panicking frames are still
			// below us, so the stack names the culprit). Fail the job with
			// value and stack so clients see why, then re-raise: the worker's
			// recover replaces the goroutine with a fresh one.
			s.metrics.jobPanicked()
			s.finalize(j, nil, fmt.Errorf("server: job panicked: %v\n\n%s",
				r, debug.Stack()), wall)
			panic(r)
		}
		s.finalize(j, res, err, wall)
	}()
	// Cheapest path first: in a cluster, a job someone else already computed
	// is one peer GET away. Only a confirmed fetch short-circuits the run;
	// any miss, error, or timeout falls through to local simulation.
	if fill != nil && !j.noFill {
		if fres, ok := fill(ctx, j.hash); ok && fres != nil && fres.Hash == j.hash {
			s.mu.Lock()
			j.peer = true
			s.mu.Unlock()
			s.metrics.jobPeerFilled()
			res = fres
			return
		}
	}
	if s.opts.Handicap > 0 {
		// Demo/testing knob: model a slow node without touching results.
		select {
		case <-ctx.Done():
			err = ctx.Err()
			return
		case <-time.After(s.opts.Handicap):
		}
	}
	res, err = s.runWithRetry(ctx, rn, j.plan, cio)
	if err == nil {
		// The job finished; its snapshot is dead weight (and must not be
		// resumed by a future submission of the same hash).
		s.state.DropCkpt(j.hash)
	}
}

// finalize moves a job to its terminal state and updates breaker + metrics.
func (s *Server) finalize(j *Job, res *Result, err error, wall time.Duration) {
	s.mu.Lock()
	j.finished = time.Now()
	if s.inflight[j.hash] == j {
		delete(s.inflight, j.hash)
	}
	switch {
	case err == nil:
		j.state = JobDone
		j.result = res
		s.cache.Put(j.hash, res)
		s.metrics.jobCompleted(wall)
		s.metrics.mergeStages(res.Obs)
		if res.Verdict != nil {
			s.metrics.countVerdict(res.Verdict.Regime)
		}
		s.brk.RecordSuccess()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = JobCanceled
		j.err = err.Error()
		s.metrics.jobCanceled()
		// Timeouts are not engine failures; they don't move the breaker.
	default:
		j.state = JobFailed
		j.err = err.Error()
		s.metrics.jobFailed()
		s.brk.RecordFailure()
	}
	close(j.done)
	s.mu.Unlock()
}

// runWithRetry executes the plan, retrying transient injected faults with
// capped exponential backoff plus jitter. All attempts share the job's
// timeout context. Permanent faults, client errors, and timeouts are never
// retried.
func (s *Server) runWithRetry(ctx context.Context, rn *Runner, p *Plan, cio *CkptIO) (*Result, error) {
	delay := s.opts.RetryBaseDelay
	for attempt := 0; ; attempt++ {
		res, err := rn.RunAttemptCkpt(ctx, p, attempt, cio)
		if err == nil || attempt >= s.opts.MaxRetries || !fault.IsTransient(err) {
			return res, err
		}
		s.metrics.jobRetried()
		// Up to 50% jitter decorrelates retry storms across workers.
		sleep := delay + time.Duration(rand.Int63n(int64(delay)/2+1))
		if sleep > s.opts.RetryMaxDelay {
			sleep = s.opts.RetryMaxDelay
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(sleep):
		}
		delay *= 2
		if delay > s.opts.RetryMaxDelay {
			delay = s.opts.RetryMaxDelay
		}
	}
}

// statusLocked builds the status view; the caller holds s.mu.
func (j *Job) statusLocked() JobStatus {
	st := JobStatus{ID: j.id, Hash: j.hash, State: j.state, Cached: j.cached,
		PeerFilled: j.peer, Error: j.err, ResumedFrom: j.resumedFrom,
		Checkpoints: j.checkpoints, WarmStarted: j.warmStarted}
	if j.result != nil && j.result.Verdict != nil {
		st.Regime = j.result.Verdict.Regime
	}
	switch j.state {
	case JobQueued:
		st.QueuedMs = float64(time.Since(j.submitted)) / float64(time.Millisecond)
	case JobRunning:
		st.QueuedMs = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
		st.RunMs = float64(time.Since(j.started)) / float64(time.Millisecond)
	default:
		st.QueuedMs = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
		st.RunMs = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	return st
}

// Status returns a job's current lifecycle snapshot.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.statusLocked(), true
}

// Result returns a job's result (nil unless state is done) and its status.
func (s *Server) Result(id string) (*Result, JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, false
	}
	return j.result, j.statusLocked(), true
}

// ResultByHash returns the cached result for a canonical job hash. It is the
// lookup behind the peer protocol's GET /v1/peer/result/{hash}.
func (s *Server) ResultByHash(hash string) (*Result, bool) {
	return s.cache.Get(hash)
}

// WaitByHash returns the result for a canonical job hash, waiting (bounded by
// ctx) for an in-flight job computing that hash if one exists. ok is false
// when the hash is neither cached nor in flight, when the in-flight job ends
// in a non-done state, or when ctx expires first. This is the owner-side
// single-flight: a hot sweep's worth of peers asking for the same hash all
// park on the one computation instead of stampeding.
func (s *Server) WaitByHash(ctx context.Context, hash string) (*Result, bool) {
	if res, ok := s.cache.Get(hash); ok {
		return res, true
	}
	s.mu.Lock()
	j := s.inflight[hash]
	s.mu.Unlock()
	if j == nil {
		return nil, false
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != JobDone || j.result == nil {
		return nil, false
	}
	return j.result, true
}

// Wait blocks until job id completes (any terminal state) or ctx ends.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("server: unknown job %q", id)
	}
	select {
	case <-j.done:
		st, _ := s.Status(id)
		return st, nil
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// BreakerState returns the circuit breaker's state ("closed", "open",
// "half-open"), its consecutive engine-failure count, and how many times it
// has opened.
func (s *Server) BreakerState() (string, int, uint64) {
	return s.brk.Snapshot()
}

// MetricsSnapshot returns the current service metrics.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	snap := s.metrics.snapshot(s.opts.Workers, int(s.busy.Load()),
		len(s.queue), s.opts.QueueDepth, s.cache.Len())
	snap.BreakerState, _, snap.BreakerOpens = s.brk.Snapshot()
	return snap
}

// Shutdown drains the server: new submissions are rejected with ErrDraining,
// queued and running jobs are given drainTimeout to finish, and any still
// running after that are canceled and awaited. It reports whether the drain
// completed without forced cancellation. Shutdown is idempotent; concurrent
// calls all block until the pool exits.
func (s *Server) Shutdown(drainTimeout time.Duration) bool {
	_, clean := s.ShutdownDrain(drainTimeout)
	return clean
}

// DrainSummary classifies what happened to the jobs that were in flight when
// a drain began. Checkpointed jobs were canceled but left a durable snapshot
// behind: resubmitting the same spec (here after restart, or on another node
// holding the replica) resumes from the last barrier instead of starting
// over.
type DrainSummary struct {
	Finished     int `json:"finished"`
	Checkpointed int `json:"checkpointed"`
	Canceled     int `json:"canceled"`
}

// ShutdownDrain is Shutdown returning a per-job accounting of the drain. It
// also persists the result cache to the state dir, so finished work survives
// the restart alongside the snapshots of interrupted work.
func (s *Server) ShutdownDrain(drainTimeout time.Duration) (DrainSummary, bool) {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var active []*Job
	for _, j := range s.jobs {
		if j.state == JobQueued || j.state == JobRunning {
			active = append(active, j)
		}
	}
	if !already {
		// Submissions send on s.queue only while holding s.mu with
		// draining false, so this close cannot race a send.
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	clean := true
	timer := time.NewTimer(drainTimeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		clean = false
		s.runCancel()
		<-done
	}
	s.runCancel()

	var sum DrainSummary
	s.mu.Lock()
	hashes := make([]string, 0, len(active))
	for _, j := range active {
		if j.state == JobDone {
			sum.Finished++
			hashes = append(hashes, "")
			continue
		}
		hashes = append(hashes, j.hash)
	}
	s.mu.Unlock()
	for _, h := range hashes {
		switch {
		case h == "":
			// counted as finished above
		case s.state.HasCkpt(h):
			sum.Checkpointed++
		default:
			sum.Canceled++
		}
	}
	s.persistResults()
	return sum, clean
}

// persistResults writes the result cache to the state dir (no-op without
// one). Best-effort: the cache is an optimization, so failures are ignored.
func (s *Server) persistResults() {
	if !s.state.enabled() {
		return
	}
	entries := s.cache.Entries()
	out := make([]persistedResult, 0, len(entries))
	for _, e := range entries {
		out = append(out, persistedResult{Hash: e.key, Result: e.val.Canonical()})
	}
	s.state.SaveResults(out)
}

// CheckpointBytes returns the durable snapshot stored for a job hash
// (envelope-validated). It backs GET /v1/jobs/{id}/checkpoint and the peer
// checkpoint protocol.
func (s *Server) CheckpointBytes(hash string) ([]byte, bool) {
	if !validSnapshotName(hash) {
		return nil, false
	}
	return s.state.LoadCkpt(hash)
}

// HasCheckpoint reports whether a durable snapshot exists for a job hash
// without reading it (peer HEAD probes, anti-entropy dedup).
func (s *Server) HasCheckpoint(hash string) bool {
	if !validSnapshotName(hash) {
		return false
	}
	return s.state.HasCkpt(hash)
}

// CheckpointHashes lists every job hash with a durable snapshot — the
// anti-entropy scan input.
func (s *Server) CheckpointHashes() []string {
	return s.state.CkptHashes()
}

// PutCheckpoint stores an externally produced snapshot (a peer replica or a
// client-side restore-on-submit) so the next submission of that hash resumes
// from it. The envelope is validated before anything touches disk; storing
// requires a state dir.
func (s *Server) PutCheckpoint(hash string, snap []byte) error {
	if !validSnapshotName(hash) {
		return fmt.Errorf("server: invalid snapshot hash %q", hash)
	}
	if !s.state.enabled() {
		return fmt.Errorf("server: no state dir; cannot store checkpoints")
	}
	if _, err := ckpt.Open(snap); err != nil {
		return fmt.Errorf("server: rejecting snapshot for %s: %w", hash, err)
	}
	return s.state.SaveCkpt(hash, snap)
}

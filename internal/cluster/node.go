// Package cluster turns nvmserved into a multi-node fleet. Every node is
// symmetric: it owns a slice of the canonical job-hash space on a
// consistent-hash ring, runs a local nvmserved scheduler, and speaks a small
// HTTP peer protocol to the rest of the membership. Three mechanisms do the
// work:
//
//   - Sharded dispatch: a job submitted to any node's cluster API is routed
//     to the ring owner of its canonical hash, so repeated sweeps hit the
//     same owner's result cache no matter which node coordinates.
//   - Peer cache fill: a node about to simulate a job it does not own first
//     asks the owner for the finished result (GET /v1/peer/result/{hash}),
//     with single-flight suppression on both sides, so a result computed
//     anywhere is a cache hit everywhere.
//   - Hedged dispatch: when the owner exceeds a latency-percentile budget,
//     the job is also sent to the next replica on the ring. Results are
//     deterministic functions of the plan, so first-answer-wins is always
//     correct; the loser is canceled.
//
// Peer health reuses the internal/breaker circuit breaker: transport faults
// and 5xx responses open a peer's breaker, routing traffic around it until a
// cooldown probe succeeds — a SIGKILLed node mid-sweep costs reroutes, not
// the sweep. Integrity failures are harsher: every peer path re-verifies
// response bytes (digest, canonical hash, snapshot envelope), and a peer
// caught returning corrupt bytes more than QuarantineThreshold times is
// exiled from all routing — corruption is not a transient to retry through.
// Dispatch itself is bounded two ways: a per-dispatch deadline
// (DispatchTimeout) and a per-dispatch attempt budget (AttemptBudget), so a
// partitioned owner cannot trigger unbounded re-dispatch. Background loops
// started with Start probe peer health off the hot path and run anti-entropy
// repair so checkpoint replicas lost to a partition re-converge after heal.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/server"
)

// Config wires a Node. Zero fields take defaults.
type Config struct {
	// SelfID is this node's id; it must appear in Peers.
	SelfID string
	// Peers is the full fixed membership, self included (self's URL may be
	// empty; it is never dialed).
	Peers []Peer
	// HedgeAfter, when positive, is a fixed straggler budget: a dispatched
	// job still unanswered after this long is hedged to the next replica.
	// Zero selects the adaptive policy: 1.5x the hedgePercentile of recent
	// remote latencies, clamped to [hedgeMin, hedgeMax].
	HedgeAfter time.Duration
	// FillWait is how long a peer fill lets the owner hold the request for an
	// in-flight computation of the same hash (default 250ms).
	FillWait time.Duration
	// RequestTimeout bounds one peer run end to end (default 2m; it should
	// exceed the local job timeout so remote execution is not the tighter
	// constraint).
	RequestTimeout time.Duration
	// DispatchTimeout bounds one whole dispatch — every reroute and hedge
	// included — so a hostile network cannot stretch a single job forever
	// (default 2x RequestTimeout; negative disables the deadline).
	DispatchTimeout time.Duration
	// AttemptBudget caps candidate launches (first try, reroutes, and the
	// hedge together) per dispatch, bounding retry storms under partitions
	// (default member count + 1; negative removes the bound).
	AttemptBudget int
	// BreakerThreshold / BreakerCooldown configure each peer's health breaker
	// (defaults 3 consecutive failures, 3s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// QuarantineThreshold is how many corrupt responses (failed digest, wrong
	// hash, bad snapshot envelope) exile a peer from all routing for the rest
	// of the process lifetime (default 3; negative disables quarantine).
	QuarantineThreshold int
	// ProbeEvery, when positive, has Start run a background loop probing
	// every peer's /v1/healthz, surfacing probe latency in /v1/cluster/info.
	ProbeEvery time.Duration
	// AntiEntropyEvery, when positive, has Start run a background repair
	// loop re-replicating local checkpoints whose ring replica lacks a copy.
	AntiEntropyEvery time.Duration
	// Transport overrides the peer HTTP transport. The chaos fabric injects
	// its fault-injecting RoundTripper here; nil uses the standard pooled
	// transport.
	Transport http.RoundTripper
}

// The adaptive hedge policy's constants: the percentile of recent remote
// latencies it scales, and the bounds its budget is clamped to.
const (
	hedgePercentile = 0.95
	hedgeMin        = 25 * time.Millisecond
	hedgeMax        = 2 * time.Second
)

func (c Config) withDefaults(members int) Config {
	if c.FillWait <= 0 {
		c.FillWait = 250 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.DispatchTimeout == 0 {
		c.DispatchTimeout = 2 * c.RequestTimeout
	}
	if c.AttemptBudget == 0 {
		c.AttemptBudget = members + 1
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 3 * time.Second
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 3
	}
	return c
}

// peerState is one remote member: its address, health breaker, integrity
// record, and last health-probe observation.
type peerState struct {
	id  string
	url string
	brk *breaker.Breaker

	corrupt     atomic.Uint64 // integrity failures observed from this peer
	quarantined atomic.Bool   // exiled from all routing (corruption threshold hit)

	probeStatus atomic.Int64 // last probe HTTP status; 0 = probe failed
	probeNanos  atomic.Int64 // last probe round-trip time
	probeAt     atomic.Int64 // unix nanos of the last probe, 0 = never probed
}

// routable reports whether the peer may be sent traffic at all: quarantine is
// absolute (corrupt bytes are not a transient), the breaker is advisory.
func (ps *peerState) routable() bool {
	return !ps.quarantined.Load() && ps.brk.Ready()
}

// Node is one cluster member. Create with NewNode; it installs the peer
// cache-fill hook and the cluster Prometheus collector on the local server.
// Start launches the configured background loops; Close stops them.
type Node struct {
	cfg    Config
	local  *server.Server
	ring   *Ring
	peers  map[string]*peerState // remote members only
	client *Client
	fillsf *flightGroup
	lat    *latWindow
	m      clusterMetrics

	// sweepParallel bounds concurrently in-flight points of one cluster
	// sweep: 2 x local workers x member count, enough to saturate the
	// fleet's pools with headroom for cache hits.
	sweepParallel int

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewNode builds the cluster layer over a local scheduler. The membership in
// cfg.Peers is fixed for the node's lifetime and must include cfg.SelfID.
func NewNode(local *server.Server, cfg Config) (*Node, error) {
	ids := make([]string, 0, len(cfg.Peers))
	selfSeen := false
	for _, p := range cfg.Peers {
		ids = append(ids, p.ID)
		if p.ID == cfg.SelfID {
			selfSeen = true
		}
	}
	if cfg.SelfID == "" {
		return nil, fmt.Errorf("cluster: empty self id")
	}
	if !selfSeen {
		return nil, fmt.Errorf("cluster: self id %q not in peer list", cfg.SelfID)
	}
	cfg = cfg.withDefaults(len(ids))
	ring, err := NewRing(ids)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:           cfg,
		local:         local,
		ring:          ring,
		sweepParallel: 2 * local.Options().Workers * len(ids),
		peers:         make(map[string]*peerState),
		client:        NewClient(cfg.RequestTimeout, defaultProbeTimeout, cfg.Transport),
		fillsf:        newFlightGroup(),
		lat:           newLatWindow(128),
	}
	for _, p := range cfg.Peers {
		if p.ID == cfg.SelfID {
			continue
		}
		if p.URL == "" {
			return nil, fmt.Errorf("cluster: peer %q has no URL", p.ID)
		}
		n.peers[p.ID] = &peerState{
			id:  p.ID,
			url: p.URL,
			brk: breaker.New(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
	}
	if len(n.peers) > 0 {
		local.SetFill(n.fillFromPeers)
		local.SetCkptReplicate(n.replicateCkpt)
	}
	local.RegisterProm(n.writeProm)
	return n, nil
}

// Start launches the node's configured background loops: health probing
// (ProbeEvery) and checkpoint anti-entropy (AntiEntropyEvery). Idempotent
// until Close.
func (n *Node) Start() {
	if n.stop != nil || len(n.peers) == 0 {
		return
	}
	n.stop = make(chan struct{})
	if n.cfg.ProbeEvery > 0 {
		n.wg.Add(1)
		go n.loop(n.cfg.ProbeEvery, n.ProbePeers)
	}
	if n.cfg.AntiEntropyEvery > 0 {
		n.wg.Add(1)
		go n.loop(n.cfg.AntiEntropyEvery, func(ctx context.Context) { n.AntiEntropy(ctx) })
	}
}

// Close stops the background loops started by Start and waits for them.
func (n *Node) Close() {
	if n.stop == nil {
		return
	}
	close(n.stop)
	n.wg.Wait()
	n.stop = nil
}

// loop drives one background pass function on a fixed period until Close.
func (n *Node) loop(every time.Duration, pass func(context.Context)) {
	defer n.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-n.stop
		cancel()
	}()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
			pass(ctx)
		}
	}
}

// ProbePeers probes every peer's health endpoint once, recording status and
// round-trip latency for /v1/cluster/info. Probes are observational: the
// breaker is driven by real traffic, not probes, so a probe burst can never
// flap routing on its own.
func (n *Node) ProbePeers(ctx context.Context) {
	for _, ps := range n.peers {
		status, took, err := n.client.Health(ctx, ps.url)
		n.m.probes.Add(1)
		ps.probeAt.Store(time.Now().UnixNano())
		ps.probeNanos.Store(int64(took))
		if err != nil {
			ps.probeStatus.Store(0)
			n.m.probeFailures.Add(1)
			continue
		}
		ps.probeStatus.Store(int64(status))
	}
}

// AntiEntropy runs one checkpoint repair pass: for every locally held
// snapshot, make sure the first routable non-self member in its ring order
// holds a copy, pushing ours if not. This is the convergence half of
// partition tolerance — replication during the partition was best-effort and
// may have silently under-replicated; after heal, this pass restores the
// replica without waiting for the job's next barrier. Returns how many
// snapshots were re-replicated.
func (n *Node) AntiEntropy(ctx context.Context) int {
	if len(n.peers) == 0 {
		return 0
	}
	repaired := 0
	for _, hash := range n.local.CheckpointHashes() {
		if ctx.Err() != nil {
			break
		}
		for _, id := range n.ring.Order(hash) {
			if id == n.cfg.SelfID {
				continue
			}
			ps := n.peers[id]
			if !ps.routable() {
				continue
			}
			hctx, hcancel := context.WithTimeout(ctx, 5*time.Second)
			have, err := n.client.HasCkpt(hctx, ps.url, hash)
			hcancel()
			if err != nil {
				n.chargePeer(ps, err)
				continue // try the next replica candidate
			}
			if have {
				ps.brk.RecordSuccess()
				break // replica intact; next hash
			}
			snap, ok := n.local.CheckpointBytes(hash)
			if !ok {
				break // dropped since listing (job finished); nothing to repair
			}
			pctx, pcancel := context.WithTimeout(ctx, 5*time.Second)
			err = n.client.PushCkpt(pctx, ps.url, hash, snap)
			pcancel()
			if err != nil {
				n.m.ckptReplErrors.Add(1)
				n.chargePeer(ps, err)
				continue
			}
			ps.brk.RecordSuccess()
			n.m.ckptRepaired.Add(1)
			repaired++
			break // one replica is the replication factor
		}
	}
	return repaired
}

// chargePeer converts a failed peer call into health bookkeeping: corrupt
// responses count toward quarantine, transport faults and 5xx charge the
// breaker. Safe to call with any error; non-peerErrors are ignored.
func (n *Node) chargePeer(ps *peerState, err error) {
	var pe *peerError
	if !errors.As(err, &pe) {
		return
	}
	if pe.corrupt {
		n.m.corruptResponses.Add(1)
		if c := ps.corrupt.Add(1); n.cfg.QuarantineThreshold > 0 &&
			c == uint64(n.cfg.QuarantineThreshold) {
			ps.quarantined.Store(true)
			n.m.quarantines.Add(1)
		}
	}
	if pe.countsAgainstPeer() {
		ps.brk.RecordFailure()
	}
}

// replicateCkpt is the server.CkptReplicateFunc installed on the local
// scheduler: every checkpoint the scheduler saves is pushed, best-effort, to
// the first routable non-self member in the hash's ring order. With one
// replica per barrier, a SIGKILLed node costs only the work since the last
// barrier — the successor resumes from its copy when the job is resubmitted.
func (n *Node) replicateCkpt(hash string, snap []byte) {
	for _, id := range n.ring.Order(hash) {
		if id == n.cfg.SelfID {
			continue
		}
		ps := n.peers[id]
		if !ps.routable() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := n.client.PushCkpt(ctx, ps.url, hash, snap)
		cancel()
		if err != nil {
			n.m.ckptReplErrors.Add(1)
			n.chargePeer(ps, err)
			continue // try the next replica; any surviving copy is enough
		}
		ps.brk.RecordSuccess()
		n.m.ckptReplicated.Add(1)
		return
	}
}

// recoverCkpt runs before this node simulates a dispatched job: if the plan
// checkpoints and no snapshot is held locally, ask up to two non-self ring
// members for their replica so the run resumes mid-stream instead of
// restarting. Best-effort — any failure just means simulating from scratch,
// which is always correct.
func (n *Node) recoverCkpt(ctx context.Context, p *server.Plan) {
	if p.CkptEvery <= 0 || len(n.peers) == 0 {
		return
	}
	hash := p.Hash()
	if _, ok := n.local.CheckpointBytes(hash); ok {
		return
	}
	targets := 0
	for _, id := range n.ring.Order(hash) {
		if id == n.cfg.SelfID {
			continue
		}
		if targets++; targets > 2 {
			break
		}
		ps := n.peers[id]
		if !ps.routable() {
			continue
		}
		fctx, fcancel := context.WithTimeout(ctx, 5*time.Second)
		snap, ok, err := n.client.FetchCkpt(fctx, ps.url, hash)
		fcancel()
		if err != nil {
			n.chargePeer(ps, err)
			continue
		}
		ps.brk.RecordSuccess()
		if !ok {
			continue
		}
		if n.local.PutCheckpoint(hash, snap) == nil {
			n.m.ckptRecovered.Add(1)
			return
		}
	}
}

// Owner returns the ring owner of a canonical job hash (exported for tests
// and tooling that want to steer jobs at specific members).
func (n *Node) Owner(hash string) string { return n.ring.Owner(hash) }

// Quarantined reports whether a peer has been exiled for returning corrupt
// bytes (exported for tooling and the chaos soak's assertions).
func (n *Node) Quarantined(id string) bool {
	ps, ok := n.peers[id]
	return ok && ps.quarantined.Load()
}

// Route describes where one dispatch went.
type Route struct {
	Hash string `json:"hash"`
	// Owner is the ring owner of the hash; Node is the member whose answer
	// won (they differ after a reroute or a hedge win).
	Owner    string `json:"owner"`
	Node     string `json:"node"`
	Hedged   bool   `json:"hedged,omitempty"`
	HedgeWon bool   `json:"hedge_won,omitempty"`
	Reroutes int    `json:"reroutes,omitempty"`
	// Attempts is how many candidate launches this dispatch consumed (first
	// try + reroutes + hedge), always bounded by the attempt budget.
	Attempts int `json:"attempts,omitempty"`
}

// Dispatch routes one job to the ring owner of its canonical hash and waits
// for the result, hedging to the next replica past the straggler budget and
// rerouting around failed peers. The local node is always the candidate of
// last resort, so a dispatch succeeds whenever the job can run at all. The
// whole dispatch — reroutes and hedge included — runs under DispatchTimeout
// and never launches more than AttemptBudget candidates.
func (n *Node) Dispatch(ctx context.Context, spec server.JobSpec) (*server.Result, Route, error) {
	p, err := spec.Compile()
	if err != nil {
		return nil, Route{}, err
	}
	if n.cfg.DispatchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, n.cfg.DispatchTimeout)
		defer cancel()
	}
	hash := p.Hash()
	order := n.ring.Order(hash)
	route := Route{Hash: hash, Owner: order[0]}

	// Candidate chain: ring order with unhealthy peers pushed behind healthy
	// ones (still reachable as a desperation move — Ready is a snapshot, and
	// a half-open peer may have recovered). Quarantined peers are excluded
	// outright: their bytes cannot be trusted. Self is always "healthy".
	chain := make([]string, 0, len(order))
	var unhealthy []string
	for _, id := range order {
		if id == n.cfg.SelfID {
			chain = append(chain, id)
			continue
		}
		ps := n.peers[id]
		if ps.quarantined.Load() {
			continue
		}
		if ps.brk.Ready() {
			chain = append(chain, id)
		} else {
			unhealthy = append(unhealthy, id)
		}
	}
	chain = append(chain, unhealthy...)

	res, winner, err := n.race(ctx, spec, chain, &route)
	if err != nil {
		return nil, route, err
	}
	route.Node = winner
	return res, route, nil
}

// outcome is one candidate's answer in a dispatch race.
type outcome struct {
	res    *server.Result
	id     string
	err    error
	remote bool
	hedge  bool
	took   time.Duration
}

// race launches candidates from chain one at a time: the next on failure,
// plus at most one hedge launch when the straggler budget expires. First
// successful answer wins; the shared context cancellation reaps the losers
// (a canceled peer run cancels the remote job too, via the request context).
// Launches stop once the attempt budget is spent — under a partition the
// dispatch then fails fast instead of storming the fleet with retries.
func (n *Node) race(ctx context.Context, spec server.JobSpec, chain []string, route *Route) (*server.Result, string, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	resc := make(chan outcome, len(chain))
	next := 0
	launch := func(hedge bool) bool {
		if n.cfg.AttemptBudget > 0 && route.Attempts >= n.cfg.AttemptBudget {
			n.m.budgetExhausted.Add(1)
			return false
		}
		for next < len(chain) {
			id := chain[next]
			next++
			if id == n.cfg.SelfID {
				route.Attempts++
				n.m.dispatchLocal.Add(1)
				go func() {
					res, err := n.runLocal(rctx, spec)
					resc <- outcome{res: res, id: id, err: err, hedge: hedge}
				}()
				return true
			}
			ps := n.peers[id]
			if ok, _ := ps.brk.Allow(); !ok || ps.quarantined.Load() {
				continue // shut out since chain ordering; skip
			}
			route.Attempts++
			n.m.dispatchRemote.Add(1)
			go func() {
				start := time.Now()
				res, err := n.client.Run(rctx, ps.url, spec, route.Hash)
				resc <- outcome{res: res, id: id, err: err, remote: true,
					hedge: hedge, took: time.Since(start)}
			}()
			return true
		}
		return false
	}

	if !launch(false) {
		return nil, "", fmt.Errorf("cluster: no dispatch candidates")
	}
	outstanding := 1
	budget := n.hedgeDelay()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	hedged := false
	var lastErr error
	for outstanding > 0 {
		select {
		case o := <-resc:
			outstanding--
			ps := n.peers[o.id]
			if o.err == nil {
				if o.remote {
					ps.brk.RecordSuccess()
					n.lat.observe(o.took)
				}
				if o.hedge {
					n.m.hedgesWon.Add(1)
					route.HedgeWon = true
				}
				return o.res, o.id, nil
			}
			if o.remote {
				n.chargePeer(ps, o.err)
			}
			if rctx.Err() != nil {
				return nil, "", ctx.Err()
			}
			lastErr = o.err
			if launch(false) {
				outstanding++
				n.m.reroutes.Add(1)
				route.Reroutes++
			}
		case <-timer.C:
			if !hedged && launch(true) {
				outstanding++
				hedged = true
				n.m.hedgesFired.Add(1)
				route.Hedged = true
			}
		}
	}
	return nil, "", fmt.Errorf("cluster: every candidate failed after %d attempts, last error: %w",
		route.Attempts, lastErr)
}

// runLocal executes a job on the local scheduler, absorbing queue-full
// pushback with a short retry loop bounded by ctx. Dispatch traffic skips
// the fill hook: when this node is not the owner it is here as a hedge or
// reroute target, and filling would chase the very owner being avoided.
func (n *Node) runLocal(ctx context.Context, spec server.JobSpec) (*server.Result, error) {
	if p, err := spec.Compile(); err == nil {
		n.recoverCkpt(ctx, p)
	}
	for {
		st, err := n.local.SubmitNoFill(ctx, spec)
		switch {
		case err == nil:
			fin, werr := n.local.Wait(ctx, st.ID)
			if werr != nil {
				return nil, werr
			}
			switch fin.State {
			case server.JobDone:
				res, _, _ := n.local.Result(st.ID)
				return res, nil
			case server.JobCanceled:
				return nil, fmt.Errorf("cluster: local job canceled: %s", fin.Error)
			default:
				return nil, fmt.Errorf("cluster: local job failed: %s", fin.Error)
			}
		case errors.Is(err, server.ErrQueueFull):
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		default:
			return nil, err
		}
	}
}

// hedgeDelay returns the current straggler budget.
func (n *Node) hedgeDelay() time.Duration {
	if n.cfg.HedgeAfter > 0 {
		return n.cfg.HedgeAfter
	}
	p := n.lat.quantile(hedgePercentile)
	if p <= 0 {
		// No signal yet: start permissive so cold-start latencies (process
		// spawn, first-job JIT of the page pools) don't trigger false hedges.
		return hedgeMax
	}
	d := p + p/2
	if d < hedgeMin {
		d = hedgeMin
	}
	if d > hedgeMax {
		d = hedgeMax
	}
	return d
}

// fillFromPeers is the server.FillFunc installed on the local scheduler: a
// local cache miss for a hash someone else owns asks the owner (then the
// first replica) for the finished result before simulating. Requester-side
// single-flight collapses concurrent misses on one hash into one GET.
func (n *Node) fillFromPeers(ctx context.Context, hash string) (*server.Result, bool) {
	if len(n.peers) == 0 {
		return nil, false
	}
	order := n.ring.Order(hash)
	if order[0] == n.cfg.SelfID {
		// We are the owner: computing it here is the cluster working as
		// designed, not a fill opportunity.
		return nil, false
	}
	res, ok, shared := n.fillsf.Do(hash, func() (*server.Result, bool) {
		targets := 0
		for _, id := range order {
			if id == n.cfg.SelfID {
				continue
			}
			if targets++; targets > 2 {
				break // owner and first replica only; after that, simulate
			}
			ps := n.peers[id]
			if !ps.routable() {
				continue
			}
			fctx, fcancel := context.WithTimeout(ctx, n.cfg.FillWait+2*time.Second)
			res, ok, err := n.client.FetchResult(fctx, ps.url, hash, n.cfg.FillWait)
			fcancel()
			if err != nil {
				n.m.peerFillErrors.Add(1)
				n.chargePeer(ps, err)
				continue
			}
			ps.brk.RecordSuccess()
			if ok {
				n.m.peerFillHits.Add(1)
				return res, true
			}
			n.m.peerFillMisses.Add(1)
		}
		return nil, false
	})
	if shared {
		n.m.peerFillShared.Add(1)
	}
	return res, ok
}

// clusterMetrics are the cluster-layer counters, exported via
// /v1/cluster/info and merged into /v1/metrics/prom.
type clusterMetrics struct {
	dispatchLocal    atomic.Uint64
	dispatchRemote   atomic.Uint64
	hedgesFired      atomic.Uint64
	hedgesWon        atomic.Uint64
	reroutes         atomic.Uint64
	budgetExhausted  atomic.Uint64
	peerFillHits     atomic.Uint64
	peerFillMisses   atomic.Uint64
	peerFillErrors   atomic.Uint64
	peerFillShared   atomic.Uint64
	peerServeHits    atomic.Uint64
	peerServeMiss    atomic.Uint64
	peerRuns         atomic.Uint64
	corruptResponses atomic.Uint64
	quarantines      atomic.Uint64
	probes           atomic.Uint64
	probeFailures    atomic.Uint64
	ckptReplicated   atomic.Uint64
	ckptReplErrors   atomic.Uint64
	ckptReceived     atomic.Uint64
	ckptRecovered    atomic.Uint64
	ckptRepaired     atomic.Uint64
}

// PeerInfo is one member's health view in InfoSnapshot.
type PeerInfo struct {
	ID           string `json:"id"`
	URL          string `json:"url,omitempty"`
	Breaker      string `json:"breaker"`
	BreakerOpens uint64 `json:"breaker_opens,omitempty"`
	Quarantined  bool   `json:"quarantined,omitempty"`
	Corrupt      uint64 `json:"corrupt_responses,omitempty"`
	// ProbeStatus is the HTTP status of the last health probe (0 = probe
	// failed); ProbeMs is its round-trip time. Absent until the first probe.
	ProbeStatus int     `json:"probe_status,omitempty"`
	ProbeMs     float64 `json:"probe_ms,omitempty"`
}

// InfoSnapshot is the JSON shape of GET /v1/cluster/info.
type InfoSnapshot struct {
	Self             string     `json:"self"`
	Revision         string     `json:"revision"`
	VNodes           int        `json:"vnodes"`
	Peers            []PeerInfo `json:"peers"`
	PeersUnhealthy   int        `json:"peers_unhealthy"`
	PeersQuarantined int        `json:"peers_quarantined"`
	HedgeBudgetMs    float64    `json:"hedge_budget_ms"`
	DispatchLocal    uint64     `json:"dispatch_local"`
	DispatchRemote   uint64     `json:"dispatch_remote"`
	HedgesFired      uint64     `json:"hedges_fired"`
	HedgesWon        uint64     `json:"hedges_won"`
	Reroutes         uint64     `json:"reroutes"`
	BudgetExhausted  uint64     `json:"budget_exhausted"`
	PeerFillHits     uint64     `json:"peer_fill_hits"`
	PeerFillMisses   uint64     `json:"peer_fill_misses"`
	PeerFillErrors   uint64     `json:"peer_fill_errors"`
	PeerFillShared   uint64     `json:"peer_fill_shared"`
	PeerServeHits    uint64     `json:"peer_serve_hits"`
	PeerServeMiss    uint64     `json:"peer_serve_misses"`
	PeerRuns         uint64     `json:"peer_runs"`
	CorruptResponses uint64     `json:"corrupt_responses"`
	Quarantines      uint64     `json:"quarantines"`
	Probes           uint64     `json:"probes"`
	ProbeFailures    uint64     `json:"probe_failures"`
	CkptReplicated   uint64     `json:"ckpt_replicated"`
	CkptReplErrors   uint64     `json:"ckpt_repl_errors"`
	CkptReceived     uint64     `json:"ckpt_received"`
	CkptRecovered    uint64     `json:"ckpt_recovered"`
	CkptRepaired     uint64     `json:"ckpt_repaired"`
}

// Info snapshots the cluster state and counters.
func (n *Node) Info() InfoSnapshot {
	s := InfoSnapshot{
		Self:             n.cfg.SelfID,
		Revision:         server.BuildRevision(),
		VNodes:           vnodes,
		HedgeBudgetMs:    float64(n.hedgeDelay()) / float64(time.Millisecond),
		DispatchLocal:    n.m.dispatchLocal.Load(),
		DispatchRemote:   n.m.dispatchRemote.Load(),
		HedgesFired:      n.m.hedgesFired.Load(),
		HedgesWon:        n.m.hedgesWon.Load(),
		Reroutes:         n.m.reroutes.Load(),
		BudgetExhausted:  n.m.budgetExhausted.Load(),
		PeerFillHits:     n.m.peerFillHits.Load(),
		PeerFillMisses:   n.m.peerFillMisses.Load(),
		PeerFillErrors:   n.m.peerFillErrors.Load(),
		PeerFillShared:   n.m.peerFillShared.Load(),
		PeerServeHits:    n.m.peerServeHits.Load(),
		PeerServeMiss:    n.m.peerServeMiss.Load(),
		PeerRuns:         n.m.peerRuns.Load(),
		CorruptResponses: n.m.corruptResponses.Load(),
		Quarantines:      n.m.quarantines.Load(),
		Probes:           n.m.probes.Load(),
		ProbeFailures:    n.m.probeFailures.Load(),
		CkptReplicated:   n.m.ckptReplicated.Load(),
		CkptReplErrors:   n.m.ckptReplErrors.Load(),
		CkptReceived:     n.m.ckptReceived.Load(),
		CkptRecovered:    n.m.ckptRecovered.Load(),
		CkptRepaired:     n.m.ckptRepaired.Load(),
	}
	ids := make([]string, 0, len(n.peers))
	for id := range n.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ps := n.peers[id]
		state, _, opens := ps.brk.Snapshot()
		pi := PeerInfo{
			ID:           id,
			URL:          ps.url,
			Breaker:      state,
			BreakerOpens: opens,
			Quarantined:  ps.quarantined.Load(),
			Corrupt:      ps.corrupt.Load(),
		}
		if ps.probeAt.Load() != 0 {
			pi.ProbeStatus = int(ps.probeStatus.Load())
			pi.ProbeMs = float64(ps.probeNanos.Load()) / 1e6
		}
		s.Peers = append(s.Peers, pi)
		if state == breaker.Open {
			s.PeersUnhealthy++
		}
		if pi.Quarantined {
			s.PeersQuarantined++
		}
	}
	return s
}

// latWindow is a bounded sliding window of recent remote dispatch latencies
// feeding the adaptive hedge budget.
type latWindow struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	n    int
}

// latMinSamples is how many observations the adaptive policy wants before
// trusting its percentile estimate.
const latMinSamples = 8

func newLatWindow(size int) *latWindow {
	return &latWindow{buf: make([]time.Duration, size)}
}

func (w *latWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// quantile returns the q-quantile of the window, or 0 while under-sampled.
func (w *latWindow) quantile(q float64) time.Duration {
	w.mu.Lock()
	if w.n < latMinSamples {
		w.mu.Unlock()
		return 0
	}
	tmp := make([]time.Duration, w.n)
	copy(tmp, w.buf[:w.n])
	w.mu.Unlock()
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := int(q * float64(len(tmp)-1))
	return tmp[idx]
}

package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// corruptor flips one byte of every response body while leaving headers (the
// result digest included) intact — the signature of a peer with bad memory or
// a dirty wire, exactly what the integrity layer must catch.
type corruptor struct{ h http.Handler }

func (c corruptor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if len(body) > 0 {
		body[len(body)/2] ^= 0xff
	}
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestQuarantineOnCorruptPeer: a member returning flipped bytes is detected
// by the digest check on every response, charged, and after the threshold
// permanently exiled from routing — while every dispatch still succeeds via
// healthy members.
func TestQuarantineOnCorruptPeer(t *testing.T) {
	const threshold = 2
	nodes := startCluster(t, 3, nil,
		func(i int) Config {
			// A high breaker threshold keeps the breaker out of the way: this
			// test is about the integrity ledger, not transient health.
			return Config{QuarantineThreshold: threshold, BreakerThreshold: 100}
		},
		func(i int, h http.Handler) http.Handler {
			if i == 2 {
				return corruptor{h}
			}
			return h
		})

	// Dispatch n3-owned jobs from n1 until the corruption threshold trips.
	// Each attempt on n3 yields a corrupt response, costs a reroute, and the
	// dispatch still completes elsewhere — corruption never poisons a result.
	seed, dispatches := uint64(1), 0
	for !nodes[0].Node.Quarantined("n3") {
		if dispatches >= threshold+2 {
			t.Fatalf("n3 not quarantined after %d corrupt dispatches", dispatches)
		}
		// Walk distinct seeds so every dispatch is a fresh n3-owned job — a
		// cached hash would not exercise the corrupt path again.
		var spec server.JobSpec
		for {
			spec = clusterChaseSpec(seed)
			seed++
			p, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if nodes[0].Node.Owner(p.Hash()) == "n3" {
				break
			}
		}
		res, route, err := nodes[0].Node.Dispatch(context.Background(), spec)
		if err != nil {
			t.Fatalf("dispatch %d: %v", dispatches, err)
		}
		if route.Node == "n3" {
			t.Fatalf("dispatch %d: corrupt peer's answer accepted", dispatches)
		}
		if res.Hash != route.Hash {
			t.Fatalf("dispatch %d: result hash mismatch after reroute", dispatches)
		}
		dispatches++
	}

	info := nodes[0].Node.Info()
	if info.PeersQuarantined != 1 || info.Quarantines != 1 {
		t.Errorf("quarantined=%d quarantines=%d, want 1/1", info.PeersQuarantined, info.Quarantines)
	}
	if info.CorruptResponses < threshold {
		t.Errorf("corrupt_responses = %d, want >= %d", info.CorruptResponses, threshold)
	}
	var n3 *PeerInfo
	for i := range info.Peers {
		if info.Peers[i].ID == "n3" {
			n3 = &info.Peers[i]
		}
	}
	if n3 == nil || !n3.Quarantined || n3.Corrupt < threshold {
		t.Errorf("n3 peer info = %+v, want quarantined with >= %d corrupt", n3, threshold)
	}

	// Exile is absolute: the next n3-owned dispatch must not even try n3 —
	// no reroute, one attempt, answered by a healthy member.
	spec := specOwnedBy(t, nodes[0].Node, "n3")
	_, route, err := nodes[0].Node.Dispatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("post-quarantine dispatch: %v", err)
	}
	if route.Node == "n3" || route.Reroutes != 0 || route.Attempts != 1 {
		t.Errorf("post-quarantine route = %+v, want one clean attempt off n3", route)
	}
}

// TestAttemptBudgetFailsFast: with the budget spent, a dispatch refuses to
// keep launching candidates and fails fast instead of storming the fleet.
func TestAttemptBudgetFailsFast(t *testing.T) {
	nodes := startCluster(t, 3, nil,
		func(i int) Config { return Config{AttemptBudget: 1} },
		nil,
	)
	spec := specOwnedBy(t, nodes[0].Node, "n3")

	// Healthy fleet first: one attempt is all a clean dispatch needs, and the
	// budget never shows up.
	_, route, err := nodes[0].Node.Dispatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("healthy dispatch: %v", err)
	}
	if route.Attempts != 1 {
		t.Errorf("healthy dispatch consumed %d attempts, want 1", route.Attempts)
	}
	if n := nodes[0].Node.Info().BudgetExhausted; n != 0 {
		t.Errorf("budget_exhausted = %d on a healthy fleet, want 0", n)
	}

	// Kill the owner of a fresh job: the single budgeted attempt fails, the
	// reroute is refused, and the dispatch errors instead of walking the ring.
	var spec2 server.JobSpec
	for seed := uint64(10000); ; seed++ {
		spec2 = clusterChaseSpec(seed)
		p, cerr := spec2.Compile()
		if cerr != nil {
			t.Fatal(cerr)
		}
		if nodes[0].Node.Owner(p.Hash()) == "n3" {
			break
		}
	}
	nodes[2].CloseHTTP()
	_, route2, err := nodes[0].Node.Dispatch(context.Background(), spec2)
	if err == nil {
		t.Fatalf("dispatch with a dead owner and budget 1 succeeded: route %+v", route2)
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Errorf("error %q does not mention the attempt count", err)
	}
	if route2.Attempts != 1 {
		t.Errorf("failed dispatch consumed %d attempts, want exactly the budget (1)", route2.Attempts)
	}
	if n := nodes[0].Node.Info().BudgetExhausted; n == 0 {
		t.Error("budget_exhausted counter not incremented by the refused reroute")
	}
}

// TestAntiEntropyRepairsReplica: a snapshot held by only one member is pushed
// to the first routable non-self member in its ring order by one repair pass;
// a second pass finds the replica present and does nothing.
func TestAntiEntropyRepairsReplica(t *testing.T) {
	// Produce real snapshot bytes by running a checkpointing job on a fleet
	// with durable state — replication leaves a replica we can lift.
	src := startCluster(t, 3,
		func(i int) server.Options {
			return server.Options{Workers: 2, QueueDepth: 64, CacheEntries: 64, StateDir: t.TempDir()}
		}, nil, nil)
	spec, hash := ckptSpecOwnedBy(t, src[0].Node, "n3")
	if _, _, err := src[0].Node.Dispatch(context.Background(), spec); err != nil {
		t.Fatalf("source dispatch: %v", err)
	}
	var snap []byte
	for _, tn := range src {
		if b, ok := tn.Server.CheckpointBytes(hash); ok {
			snap = b
			break
		}
	}
	if snap == nil {
		t.Fatal("no member holds a snapshot after a checkpointing run")
	}

	// Fresh fleet where exactly one member holds the snapshot: the
	// under-replicated state a partition leaves behind.
	fleet := startCluster(t, 3,
		func(i int) server.Options {
			return server.Options{Workers: 2, QueueDepth: 64, CacheEntries: 64, StateDir: t.TempDir()}
		}, nil, nil)
	holder := fleet[0]
	if err := holder.Server.PutCheckpoint(hash, snap); err != nil {
		t.Fatalf("PutCheckpoint: %v", err)
	}
	var target string
	for _, id := range holder.Node.ring.Order(hash) {
		if id != holder.ID {
			target = id
			break
		}
	}

	if n := holder.Node.AntiEntropy(context.Background()); n != 1 {
		t.Fatalf("first repair pass returned %d, want 1", n)
	}
	var targetNode *Member
	for _, tn := range fleet {
		if tn.ID == target {
			targetNode = tn
		}
	}
	if !targetNode.Server.HasCheckpoint(hash) {
		t.Fatalf("ring-preferred member %s does not hold the repaired replica", target)
	}
	for _, tn := range fleet {
		if tn.ID != holder.ID && tn.ID != target && tn.Server.HasCheckpoint(hash) {
			t.Errorf("repair over-replicated: %s also holds the snapshot", tn.ID)
		}
	}
	if n := holder.Node.Info().CkptRepaired; n != 1 {
		t.Errorf("ckpt_repaired = %d, want 1", n)
	}
	if n := targetNode.Node.Info().CkptReceived; n != 1 {
		t.Errorf("target ckpt_received = %d, want 1", n)
	}

	// Convergence: a second pass sees the replica (HEAD dedup) and is a no-op.
	if n := holder.Node.AntiEntropy(context.Background()); n != 0 {
		t.Fatalf("second repair pass returned %d, want 0", n)
	}
}

// TestProbePeersRecordsHealth: a probe pass stamps status and latency into
// /v1/cluster/info and the Prometheus export; a dead peer shows up as a
// failed probe without touching its breaker.
func TestProbePeersRecordsHealth(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil, nil)
	nodes[0].Node.ProbePeers(context.Background())

	info := nodes[0].Node.Info()
	if info.Probes != 2 || info.ProbeFailures != 0 {
		t.Fatalf("probes=%d failures=%d after one healthy pass, want 2/0", info.Probes, info.ProbeFailures)
	}
	for _, p := range info.Peers {
		if p.ProbeStatus != http.StatusOK {
			t.Errorf("peer %s probe status %d, want 200", p.ID, p.ProbeStatus)
		}
	}

	resp, err := http.Get(nodes[0].URL + "/v1/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prom), `nvmcluster_peer_probe_seconds{peer="n2"}`) {
		t.Error("probe latency gauge missing from the Prometheus export")
	}

	// A dead peer fails its probe; probes stay observational, so the breaker
	// must still read closed (no routing flap from monitoring alone).
	nodes[2].CloseHTTP()
	nodes[0].Node.ProbePeers(context.Background())
	info = nodes[0].Node.Info()
	if info.ProbeFailures != 1 {
		t.Errorf("probe_failures = %d after probing a dead peer, want 1", info.ProbeFailures)
	}
	for _, p := range info.Peers {
		if p.ID == "n3" {
			if p.ProbeStatus != 0 {
				t.Errorf("dead peer probe status %d, want 0", p.ProbeStatus)
			}
			if p.Breaker != "closed" {
				t.Errorf("probe failure moved the breaker to %q; probes must be observational", p.Breaker)
			}
		}
	}
}

// TestHealthProbeTimeout: Health carries its own tight deadline so a hung
// peer cannot stall a probe for the full request budget.
func TestHealthProbeTimeout(t *testing.T) {
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer func() { close(stall); ts.Close() }()

	c := NewClient(10*time.Second, 100*time.Millisecond, nil)
	start := time.Now()
	_, _, err := c.Health(context.Background(), ts.URL)
	took := time.Since(start)
	if err == nil {
		t.Fatal("probe of a hung peer succeeded")
	}
	if took > 2*time.Second {
		t.Fatalf("probe took %s; the 100ms probe timeout did not bound it", took)
	}
}

// TestRunRejectsWrongHash: a peer answering with a well-formed result for the
// wrong job is an integrity failure (corrupt), not a transient.
func TestRunRejectsWrongHash(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"hash":"0000000000000000"}`)
	}))
	defer ts.Close()

	c := NewClient(5*time.Second, time.Second, nil)
	_, err := c.Run(context.Background(), ts.URL, clusterChaseSpec(1), "ffffffffffffffff")
	var pe *peerError
	if !errors.As(err, &pe) || !pe.corrupt {
		t.Fatalf("wrong-hash result gave %v, want a corrupt peerError", err)
	}
}

// TestFetchCkptRejectsOversizeAndGarbage: an over-bound snapshot body is an
// explicit error (never silently clipped into torn state), and a body that
// fails envelope validation is charged as corrupt.
func TestFetchCkptRejectsOversizeAndGarbage(t *testing.T) {
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.CopyN(w, zeros{}, maxCkptBytes+1)
	}))
	defer big.Close()
	c := NewClient(30*time.Second, time.Second, nil)
	_, ok, err := c.FetchCkpt(context.Background(), big.URL, "deadbeef")
	if ok || err == nil || !strings.Contains(err.Error(), "snapshot too large") {
		t.Fatalf("oversize snapshot gave ok=%v err=%v, want explicit too-large error", ok, err)
	}
	var pe *peerError
	if errors.As(err, &pe) && pe.corrupt {
		t.Error("oversize is a policy bound, not corruption; peer must not be charged as corrupt")
	}

	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "not a snapshot envelope")
	}))
	defer garbage.Close()
	_, ok, err = c.FetchCkpt(context.Background(), garbage.URL, "deadbeef")
	if ok || !errors.As(err, &pe) || !pe.corrupt {
		t.Fatalf("garbage snapshot gave ok=%v err=%v, want a corrupt peerError", ok, err)
	}
}

// zeros is an endless stream of zero bytes for size-bound tests.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

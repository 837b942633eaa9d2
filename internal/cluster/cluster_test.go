package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/server"
)

// startCluster boots an n-member loopback fleet, stopped at test cleanup.
// optsFor, cfgFor and wrapFor customize member i; any may be nil.
func startCluster(t *testing.T, n int, optsFor func(i int) server.Options, cfgFor func(i int) Config,
	wrapFor func(i int, h http.Handler) http.Handler) Fleet {
	t.Helper()
	fleet, err := StartLoopback(n, func(i int, _, _ string) MemberSetup {
		ms := MemberSetup{Options: server.Options{Workers: 2, QueueDepth: 64, CacheEntries: 64}}
		if optsFor != nil {
			ms.Options = optsFor(i)
		}
		if cfgFor != nil {
			ms.Config = cfgFor(i)
		}
		if wrapFor != nil {
			ms.Wrap = func(h http.Handler) http.Handler { return wrapFor(i, h) }
		}
		return ms
	})
	if err != nil {
		t.Fatalf("StartLoopback: %v", err)
	}
	t.Cleanup(fleet.Stop)
	return fleet
}

func clusterChaseSpec(seed uint64) server.JobSpec {
	return server.JobSpec{
		Workload: server.WorkloadSpec{Kind: server.KindChase, Region: "16K", MaxSteps: 400},
		Seed:     seed,
	}
}

// specOwnedBy scans seeds for a job whose canonical hash lands on the wanted
// member.
func specOwnedBy(t *testing.T, n *Node, id string) server.JobSpec {
	t.Helper()
	for seed := uint64(1); seed < 500; seed++ {
		spec := clusterChaseSpec(seed)
		p, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if n.Owner(p.Hash()) == id {
			return spec
		}
	}
	t.Fatalf("no seed below 500 hashes onto %s", id)
	return server.JobSpec{}
}

// TestDispatchShardsByHash: a dispatch lands on the ring owner, the owner
// caches the result, and a re-dispatch from a different coordinator returns
// byte-identical bytes.
func TestDispatchShardsByHash(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil, nil)
	spec := clusterChaseSpec(7)

	res, route, err := nodes[0].Node.Dispatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if route.Owner != nodes[0].Node.Owner(route.Hash) {
		t.Errorf("route owner %s != ring owner %s", route.Owner, nodes[0].Node.Owner(route.Hash))
	}
	if route.Node != route.Owner {
		t.Errorf("healthy dispatch answered by %s, want owner %s", route.Node, route.Owner)
	}
	var ownerSrv *server.Server
	for _, tn := range nodes {
		if tn.ID == route.Owner {
			ownerSrv = tn.Server
		}
	}
	if _, ok := ownerSrv.ResultByHash(route.Hash); !ok {
		t.Errorf("owner %s did not cache the result", route.Owner)
	}

	res2, route2, err := nodes[1].Node.Dispatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("re-dispatch: %v", err)
	}
	if route2.Owner != route.Owner {
		t.Errorf("owner changed between coordinators: %s vs %s", route2.Owner, route.Owner)
	}
	if !bytes.Equal(res.Canonical(), res2.Canonical()) {
		t.Error("same job dispatched twice returned different canonical bytes")
	}
}

// TestPeerFillOnLocalSubmit: a job computed by its owner becomes a cache hit
// on every other member via peer fill — no re-simulation, PeerFilled set.
func TestPeerFillOnLocalSubmit(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil, nil)
	spec := specOwnedBy(t, nodes[0].Node, "n3")

	// Owner computes and caches it.
	if _, _, err := nodes[2].Node.Dispatch(context.Background(), spec); err != nil {
		t.Fatalf("owner dispatch: %v", err)
	}

	// A plain local submission on n1 must be satisfied by asking the owner.
	st, err := nodes[0].Server.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fin, err := nodes[0].Server.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if fin.State != server.JobDone {
		t.Fatalf("job state %s, want done (%s)", fin.State, fin.Error)
	}
	if !fin.PeerFilled {
		t.Error("job not marked peer_filled; n1 re-simulated an owned result")
	}
	if hits := nodes[0].Node.Info().PeerFillHits; hits == 0 {
		t.Errorf("peer_fill_hits = %d, want > 0", hits)
	}
	res1, _, _ := nodes[0].Server.Result(st.ID)
	res3, _ := nodes[2].Server.ResultByHash(fin.Hash)
	if !bytes.Equal(res1.Canonical(), res3.Canonical()) {
		t.Error("peer-filled result differs from the owner's bytes")
	}
	if m := nodes[0].Server.MetricsSnapshot(); m.JobsPeerFilled == 0 {
		t.Errorf("jobs_peer_filled = %d, want > 0", m.JobsPeerFilled)
	}
}

// TestHedgeOnStraggler: a handicapped owner blows the fixed hedge budget, the
// dispatch is hedged to the next replica, the replica wins, and the loser's
// job is canceled on the straggler.
func TestHedgeOnStraggler(t *testing.T) {
	const handicap = 300 * time.Millisecond
	nodes := startCluster(t, 3,
		func(i int) server.Options {
			opts := server.Options{Workers: 2, QueueDepth: 64, CacheEntries: 64}
			if i == 2 {
				opts.Handicap = handicap
			}
			return opts
		},
		func(i int) Config { return Config{HedgeAfter: 30 * time.Millisecond} },
		nil,
	)
	spec := specOwnedBy(t, nodes[0].Node, "n3")

	start := time.Now()
	res, route, err := nodes[0].Node.Dispatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if !route.Hedged || !route.HedgeWon {
		t.Errorf("route = %+v, want hedged and hedge-won", route)
	}
	if route.Node == "n3" {
		t.Errorf("straggler n3 won the race; handicap or hedging is broken")
	}
	if took := time.Since(start); took >= handicap {
		t.Errorf("dispatch took %s; hedging did not mask the %s straggler", took, handicap)
	}
	if res.Hash != route.Hash {
		t.Errorf("result hash %s != job hash %s", res.Hash, route.Hash)
	}
	info := nodes[0].Node.Info()
	if info.HedgesFired == 0 || info.HedgesWon == 0 {
		t.Errorf("hedge counters fired=%d won=%d, want both > 0", info.HedgesFired, info.HedgesWon)
	}

	// First-answer-wins cancels the loser: n3's in-flight job must be
	// reaped, not left simulating.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if nodes[2].Server.MetricsSnapshot().JobsCanceled > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("straggler never canceled the losing hedge job")
}

// TestRerouteAroundDeadPeer: a SIGKILLed owner (dead listener) costs a
// reroute, not the dispatch; its breaker opens and later dispatches avoid it
// up front.
func TestRerouteAroundDeadPeer(t *testing.T) {
	nodes := startCluster(t, 3, nil,
		func(i int) Config {
			return Config{BreakerThreshold: 1, BreakerCooldown: time.Minute}
		},
		nil,
	)
	spec := specOwnedBy(t, nodes[0].Node, "n3")
	nodes[2].CloseHTTP() // the whole process is gone, mid-"sweep"

	res, route, err := nodes[0].Node.Dispatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("Dispatch with dead owner: %v", err)
	}
	if route.Node == "n3" {
		t.Error("dead node reported as the winner")
	}
	if route.Reroutes == 0 {
		t.Error("no reroute recorded for a dead owner")
	}
	if res == nil || res.Hash != route.Hash {
		t.Fatalf("bad result after reroute: %+v", res)
	}
	if u := nodes[0].Node.Info().PeersUnhealthy; u != 1 {
		t.Errorf("peers_unhealthy = %d, want 1", u)
	}

	// Next dispatch of an n3-owned job starts on a healthy member directly.
	spec2 := specOwnedBy(t, nodes[0].Node, "n3")
	_, route2, err := nodes[0].Node.Dispatch(context.Background(), spec2)
	if err != nil {
		t.Fatalf("second dispatch: %v", err)
	}
	if route2.Node == "n3" || route2.Reroutes != 0 {
		t.Errorf("open breaker not honored: route %+v", route2)
	}
}

// TestClusterSweepEndpoint: the coordinator's NDJSON sweep emits every point
// in order plus a summary, and a rerun is byte-identical (served by caches).
func TestClusterSweepEndpoint(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil, nil)
	sweep := map[string]any{
		"base": map[string]any{
			"workload": map[string]any{"kind": "chase", "region": "16K", "max_steps": 400},
		},
		"parameter": "seed",
		"values":    []string{"1", "2", "3", "4", "5", "6", "7", "8"},
	}
	run := func() (map[int]string, int) {
		body, _ := json.Marshal(sweep)
		resp, err := http.Post(nodes[0].URL+"/v1/cluster/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status %d", resp.StatusCode)
		}
		canon := make(map[int]string)
		completed := 0
		wantIdx := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 16<<20)
		for sc.Scan() {
			var line struct {
				SweepDone *bool           `json:"sweep_done"`
				Completed int             `json:"completed"`
				Index     *int            `json:"index"`
				Error     string          `json:"error"`
				Result    json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad line %q: %v", sc.Text(), err)
			}
			if line.SweepDone != nil {
				completed = line.Completed
				break
			}
			if line.Index == nil || line.Error != "" {
				t.Fatalf("point error: %s", line.Error)
			}
			if *line.Index != wantIdx {
				t.Fatalf("points out of order: got %d, want %d", *line.Index, wantIdx)
			}
			wantIdx++
			var compact bytes.Buffer
			if err := json.Compact(&compact, line.Result); err != nil {
				t.Fatal(err)
			}
			canon[*line.Index] = compact.String()
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return canon, completed
	}

	first, completed := run()
	if completed != 8 || len(first) != 8 {
		t.Fatalf("first sweep: completed=%d results=%d, want 8/8", completed, len(first))
	}
	second, completed := run()
	if completed != 8 {
		t.Fatalf("second sweep completed %d/8", completed)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("point %d changed between identical sweeps", i)
		}
	}
}

// clusterCkptSpec is a checkpointing pointer chase: the 64K region caps the
// stream at 1024 accesses, so CkptEvery 300 cuts barriers at 300/600/900.
func clusterCkptSpec(seed uint64) server.JobSpec {
	return server.JobSpec{
		Workload:  server.WorkloadSpec{Kind: server.KindChase, Region: "64K", MaxSteps: 2000},
		Seed:      seed,
		CkptEvery: 300,
	}
}

// ckptSpecOwnedBy scans seeds for a checkpointing job owned by the wanted
// member, returning the spec and its canonical hash.
func ckptSpecOwnedBy(t *testing.T, n *Node, id string) (server.JobSpec, string) {
	t.Helper()
	for seed := uint64(1); seed < 500; seed++ {
		spec := clusterCkptSpec(seed)
		p, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if n.Owner(p.Hash()) == id {
			return spec, p.Hash()
		}
	}
	t.Fatalf("no seed below 500 hashes onto %s", id)
	return server.JobSpec{}, ""
}

// TestCkptHandoffAcrossNodes: a checkpointing job replicates every barrier
// snapshot to its ring successor; when the runner is SIGKILLed the re-dispatch
// lands on the successor, which resumes from the replica instead of
// restarting — and the resumed result is byte-identical.
func TestCkptHandoffAcrossNodes(t *testing.T) {
	nodes := startCluster(t, 3,
		func(i int) server.Options {
			return server.Options{Workers: 2, QueueDepth: 64, CacheEntries: 64, StateDir: t.TempDir()}
		},
		func(i int) Config {
			return Config{BreakerThreshold: 1, BreakerCooldown: time.Minute}
		},
		nil,
	)
	spec, hash := ckptSpecOwnedBy(t, nodes[0].Node, "n3")

	// Healthy run: the owner executes and pushes each barrier snapshot to the
	// next ring member (replication is synchronous with the barrier, so by the
	// time Dispatch returns the replica holds the final snapshot).
	res1, route1, err := nodes[0].Node.Dispatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if route1.Node != "n3" {
		t.Fatalf("healthy dispatch answered by %s, want owner n3", route1.Node)
	}
	var owner, replica *Member
	for _, tn := range nodes {
		if tn.ID == "n3" {
			owner = tn
		} else if _, ok := tn.Server.CheckpointBytes(hash); ok {
			replica = tn
		}
	}
	if replica == nil {
		t.Fatal("no surviving member holds a replicated snapshot")
	}
	if n := owner.Node.Info().CkptReplicated; n == 0 {
		t.Errorf("owner ckpt_replicated = %d, want > 0", n)
	}
	if n := replica.Node.Info().CkptReceived; n == 0 {
		t.Errorf("replica ckpt_received = %d, want > 0", n)
	}
	snap, _ := replica.Server.CheckpointBytes(hash)

	// The runner dies mid-"sweep". Re-dispatching reroutes to the ring
	// successor, which finds the replicated snapshot in its own state dir and
	// resumes from the last barrier.
	owner.CloseHTTP()
	res2, route2, err := nodes[0].Node.Dispatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("dispatch after owner death: %v", err)
	}
	if route2.Node == "n3" {
		t.Fatal("dead owner reported as the winner")
	}
	var winner *Member
	for _, tn := range nodes {
		if tn.ID == route2.Node {
			winner = tn
		}
	}
	if winner != replica {
		t.Errorf("winner %s is not the snapshot-holding successor %s", winner.ID, replica.ID)
	}
	if n := winner.Server.MetricsSnapshot().JobsResumed; n == 0 {
		t.Error("surviving node re-simulated from scratch; want a checkpoint resume")
	}
	if !bytes.Equal(res1.Canonical(), res2.Canonical()) {
		t.Error("resumed result differs from the uninterrupted run")
	}

	// Fetch path: snapshots are stamped with the canonical plan hash, so they
	// are portable across clusters. Seed a fresh two-member fleet where only
	// the non-owner holds the snapshot; the owner must pull it over the peer
	// protocol before running.
	c2 := startCluster(t, 2,
		func(i int) server.Options {
			return server.Options{Workers: 2, QueueDepth: 64, CacheEntries: 64, StateDir: t.TempDir()}
		}, nil, nil)
	owner2 := c2[0].Node.Owner(hash)
	var runner2, holder2 *Member
	for _, tn := range c2 {
		if tn.ID == owner2 {
			runner2 = tn
		} else {
			holder2 = tn
		}
	}
	if err := holder2.Server.PutCheckpoint(hash, snap); err != nil {
		t.Fatalf("PutCheckpoint on %s: %v", holder2.ID, err)
	}
	res3, route3, err := c2[0].Node.Dispatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("dispatch on second cluster: %v", err)
	}
	if route3.Node != owner2 {
		t.Fatalf("second-cluster dispatch answered by %s, want owner %s", route3.Node, owner2)
	}
	if n := runner2.Node.Info().CkptRecovered; n != 1 {
		t.Errorf("owner ckpt_recovered = %d, want 1", n)
	}
	if n := runner2.Server.MetricsSnapshot().JobsResumed; n == 0 {
		t.Error("owner did not resume from the fetched snapshot")
	}
	if !bytes.Equal(res1.Canonical(), res3.Canonical()) {
		t.Error("peer-recovered result differs from the uninterrupted run")
	}
}

// TestSingleMemberCluster: with no remote peers the cluster layer degrades to
// plain local execution — no fill hook, every dispatch local.
func TestSingleMemberCluster(t *testing.T) {
	srv := server.New(server.Options{Workers: 1, QueueDepth: 8, CacheEntries: 8})
	t.Cleanup(func() { srv.Shutdown(5 * time.Second) })
	node, err := NewNode(srv, Config{SelfID: "solo", Peers: []Peer{{ID: "solo"}}})
	if err != nil {
		t.Fatal(err)
	}
	res, route, err := node.Dispatch(context.Background(), clusterChaseSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if route.Owner != "solo" || route.Node != "solo" || res == nil {
		t.Errorf("route = %+v, want solo-owned local answer", route)
	}
	if info := node.Info(); info.DispatchLocal != 1 || info.DispatchRemote != 0 {
		t.Errorf("dispatch counters local=%d remote=%d, want 1/0", info.DispatchLocal, info.DispatchRemote)
	}
}

// TestClusterJobReplyIsCanonical: POST /v1/cluster/jobs answers with one line
// of compact JSON whose result is Result.Canonical() of the job byte for
// byte, whichever member ran it.
func TestClusterJobReplyIsCanonical(t *testing.T) {
	nodes := startCluster(t, 2, nil, nil, nil)
	spec := clusterChaseSpec(7)
	p, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := server.NewRunner().Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Canonical()

	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nodes[0].URL+"/v1/cluster/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	line, ok := bytes.CutSuffix(body, []byte("\n"))
	if !ok || bytes.IndexByte(line, '\n') >= 0 {
		t.Fatalf("reply is not one line of JSON: %q", body)
	}
	var dr struct {
		Route  Route           `json:"route"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(line, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Route.Hash != p.Hash() {
		t.Errorf("route hash %s, want %s", dr.Route.Hash, p.Hash())
	}
	if !bytes.Equal(dr.Result, want) {
		t.Errorf("result member is not the canonical bytes:\n got %s\nwant %s", dr.Result, want)
	}
}

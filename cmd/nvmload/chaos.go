package main

// Chaos soak mode (-chaos): a 3-node in-process fleet runs sustained sweeps
// through a seeded fault-injecting network (internal/chaos) while the driver
// asserts the standing invariants from the outside:
//
//   - every completed sweep is byte-identical to a solo no-chaos reference
//   - dispatch attempts per job stay within the attempt budget (no retry
//     storms, no matter what the network does)
//   - a peer whose responses arrive corrupted is quarantined, and the fleet
//     keeps serving correct results without it
//   - a fully partitioned node cannot converge its checkpoint replicas; a
//     healed one must (anti-entropy repair), and the repaired snapshot
//     resumes the job byte-identically
//   - no goroutines leak across the whole soak
//   - the fault schedule replays exactly: every injected fault recomputes
//     identically from a fresh fabric with the same seed and spec
//
// Everything runs in one process: real loopback HTTP between nodes (the
// chaos transport and middleware sit on the actual wire path), direct struct
// access for the assertions HTTP cannot see.

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/server"
)

// chaosRun is the soak configuration.
type chaosRun struct {
	seed    uint64
	points  int
	region  string
	steps   int
	workers int
}

// chaosAttemptBudget is the per-dispatch launch cap the soak configures and
// asserts against (members + 1: every node once, plus the hedge).
const chaosAttemptBudget = 4

func (c *chaosRun) run() error {
	baseline := runtime.NumGoroutine()
	dir, err := os.MkdirTemp("", "nvmchaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Distinct seed bases keep the soak's job hashes disjoint from every
	// other mode; two batches so chaos keeps running after the quarantine.
	sweep1 := seedSweep(c.region, c.steps, 9001, c.points)
	sweep2 := seedSweep(c.region, c.steps, 9501, c.points)
	ckptSpec, err := ckptSpecOwnedBy("n2")
	if err != nil {
		return fmt.Errorf("choosing checkpoint job: %w", err)
	}
	ckptPlan, err := ckptSpec.Compile()
	if err != nil {
		return err
	}
	ckptHash := ckptPlan.Hash()

	// Phase 1: solo reference, no chaos — the canonical truth every chaos
	// sweep must reproduce byte for byte.
	ref1, ref2, refCkpt, perPoint, err := c.reference(filepath.Join(dir, "ref"), sweep1, sweep2, ckptSpec)
	if err != nil {
		return fmt.Errorf("reference phase: %w", err)
	}
	hedgeAfter := chaosHedgeBudget(perPoint, c.points)
	log.Printf("phase 1 reference: solo node ran %d points + 1 checkpoint job (%.1fms per point; hedge budget %s)",
		2*c.points, float64(perPoint)/float64(time.Millisecond), hedgeAfter)

	// The fault fabric: a lossy, laggy network everywhere; every byte n3
	// sends corrupted more often than not; peer-run responses slow-dripped.
	spec := chaos.Spec{Rules: []chaos.Rule{
		{Drop: 0.08, LatencyMs: 1, JitterMs: 4, Duplicate: 0.03},
		{To: "n3", Corrupt: 0.85},
		{Route: "/v1/peer/run", DripBytes: 256, DripDelayMs: 1},
	}}
	fabric, err := chaos.NewNetwork(c.seed, spec)
	if err != nil {
		return err
	}
	fleet, err := c.startFleet(3, filepath.Join(dir, "fleet"), fabric, hedgeAfter)
	if err != nil {
		return fmt.Errorf("starting chaos fleet: %w", err)
	}
	defer fleet.Stop()

	if err := c.phaseSweeps(fleet, sweep1, ref1, sweep2, ref2); err != nil {
		return fmt.Errorf("chaos sweep phase: %w", err)
	}
	if err := c.phasePartition(fleet, fabric, ckptSpec, ckptHash, refCkpt); err != nil {
		return fmt.Errorf("partition phase: %w", err)
	}

	// Replay: recompute every logged fault decision from a fresh walk of the
	// same (seed, spec) — the schedule that just ran must reproduce exactly.
	checked, err := fabric.VerifyReplay()
	if err != nil {
		return fmt.Errorf("fault schedule did not replay: %w", err)
	}
	if checked == 0 {
		return fmt.Errorf("chaos fabric logged no faults; the soak exercised nothing")
	}
	log.Printf("phase 4 replay: %d injected faults recomputed identically from seed %d (%s)",
		checked, c.seed, fabric.Snapshot())

	fleet.Stop()
	if err := checkGoroutines(baseline); err != nil {
		return err
	}
	log.Printf("phase 5 leaks: goroutines back to baseline (%d)", baseline)
	return nil
}

// reference computes the solo truths on a one-member fleet without chaos,
// keeping its state under dir. perPoint is the solo node's wall time per
// sweep point, from the slower of its two sweeps.
func (c *chaosRun) reference(dir string, sweep1, sweep2 map[string]any, ckptSpec server.JobSpec) (ref1, ref2 map[int]string, refCkpt string, perPoint time.Duration, err error) {
	solo, err := c.startFleet(1, dir, nil, 0)
	if err != nil {
		return nil, nil, "", 0, err
	}
	defer solo.Stop()
	ref := solo[0]
	for i, sw := range []map[string]any{sweep1, sweep2} {
		res, rerr := runSweep(ref.URL+"/v1/cluster/sweep", sw)
		if rerr != nil {
			return nil, nil, "", 0, fmt.Errorf("solo sweep %d: %w", i+1, rerr)
		}
		if res.completed != c.points {
			return nil, nil, "", 0, fmt.Errorf("solo sweep %d completed %d/%d", i+1, res.completed, c.points)
		}
		perPoint = max(perPoint, res.elapsed/time.Duration(c.points))
		if i == 0 {
			ref1 = res.canon
		} else {
			ref2 = res.canon
		}
	}
	if refCkpt, _, err = dispatchJob(ref.URL, ckptSpec); err != nil {
		return nil, nil, "", 0, fmt.Errorf("solo checkpoint job: %w", err)
	}
	return ref1, ref2, refCkpt, perPoint, nil
}

// chaosHedgeBudget is the chaos fleet's hedge budget, at least 150 ms: long
// enough for a point's owner to answer before the coordinator hedges around
// it, so that n3's corrupt answers arrive and get it quarantined. The fleet
// takes a whole batch at once on the CPUs the solo node used, so an owner's
// last answer can come as late as the solo node took for the batch, points
// times its per-point time; drops, delays and the slow drip add to that,
// hence the factor of two. A slow host (the race detector, a loaded
// machine) raises the budget with the simulation instead of hedging every
// point.
func chaosHedgeBudget(perPoint time.Duration, points int) time.Duration {
	return max(150*time.Millisecond, 2*time.Duration(points)*perPoint)
}

// startFleet boots an n-member fleet whose members keep durable state under
// dir, hedging after hedgeAfter. With a fabric, each member's peer traffic
// crosses it on both sides of the wire: the chaos transport on its
// requests, the middleware on its handler.
func (c *chaosRun) startFleet(n int, dir string, fabric *chaos.Network, hedgeAfter time.Duration) (cluster.Fleet, error) {
	return cluster.StartLoopback(n, func(_ int, id, addr string) cluster.MemberSetup {
		ms := cluster.MemberSetup{
			Options: server.Options{
				Workers:      c.workers,
				QueueDepth:   64,
				CacheEntries: 256,
				JobTimeout:   30 * time.Second,
				StateDir:     filepath.Join(dir, id),
			},
			Config: cluster.Config{
				HedgeAfter:      hedgeAfter,
				FillWait:        100 * time.Millisecond,
				RequestTimeout:  10 * time.Second,
				DispatchTimeout: 30 * time.Second,
				AttemptBudget:   chaosAttemptBudget,
				// Short cooldown so a healed partition becomes routable quickly.
				BreakerCooldown: 200 * time.Millisecond,
			},
		}
		if fabric != nil {
			ms.Config.Transport = fabric.Transport(id, nil)
			ms.Wrap = func(h http.Handler) http.Handler { return fabric.Middleware(id, h) }
			fabric.RegisterNode(id, addr)
		}
		return ms
	})
}

// phaseSweeps runs two sweep batches through coordinator n1 under sustained
// chaos: byte-identity against the solo reference, bounded attempts, and the
// corrupting peer quarantined with the fleet still serving afterwards.
func (c *chaosRun) phaseSweeps(fleet cluster.Fleet, sweep1 map[string]any, ref1 map[int]string, sweep2 map[string]any, ref2 map[int]string) error {
	for i, batch := range []struct {
		sweep map[string]any
		ref   map[int]string
	}{{sweep1, ref1}, {sweep2, ref2}} {
		res, err := runSweep(fleet[0].URL+"/v1/cluster/sweep", batch.sweep)
		if err != nil {
			return fmt.Errorf("batch %d: %w", i+1, err)
		}
		if res.completed != c.points {
			return fmt.Errorf("batch %d completed %d/%d under chaos", i+1, res.completed, c.points)
		}
		if err := sameResults(batch.ref, res.canon); err != nil {
			return fmt.Errorf("batch %d diverged from solo reference: %w", i+1, err)
		}
		if res.maxAttempts > chaosAttemptBudget {
			return fmt.Errorf("batch %d: a dispatch consumed %d attempts, budget is %d (retry storm)",
				i+1, res.maxAttempts, chaosAttemptBudget)
		}
		log.Printf("phase 2 chaos sweep %d: %d points byte-identical (hedged=%d rerouted=%d, max attempts %d/%d)",
			i+1, res.completed, res.hedged, res.rerouted, res.maxAttempts, chaosAttemptBudget)
	}
	if !fleet[0].Node.Quarantined("n3") && !fleet[1].Node.Quarantined("n3") {
		i0, i1 := fleet[0].Node.Info(), fleet[1].Node.Info()
		return fmt.Errorf("n3 corrupts 85%% of its responses but was never quarantined (corrupt seen: n1=%d n2=%d)",
			i0.CorruptResponses, i1.CorruptResponses)
	}
	log.Printf("phase 2 quarantine: corrupting peer n3 exiled (n1 sees quarantined=%v, n2 sees quarantined=%v)",
		fleet[0].Node.Quarantined("n3"), fleet[1].Node.Quarantined("n3"))
	return nil
}

// phasePartition isolates n2 completely, starts a checkpointing job on it,
// cancels the job mid-run (snapshots stay local, replication blackholed),
// then heals and requires anti-entropy to restore the replica — after which
// the job must resume from a barrier and finish byte-identical to the solo
// uninterrupted reference.
func (c *chaosRun) phasePartition(fleet cluster.Fleet, fabric *chaos.Network, ckptSpec server.JobSpec, ckptHash, refCkpt string) error {
	fabric.Partition("n2", "n1", false)
	fabric.Partition("n2", "n3", false)

	// Run the job on its owner n2 (the driver reaches n2 directly; only the
	// peer links are cut) and cancel once a barrier snapshot exists locally.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := fleet[1].Node.Dispatch(ctx, ckptSpec)
		done <- err
	}()
	deadline := time.Now().Add(15 * time.Second)
	for !fleet[1].Server.HasCheckpoint(ckptHash) {
		if time.Now().After(deadline) {
			cancel()
			<-done
			return fmt.Errorf("n2 never wrote a barrier snapshot for %.12s", ckptHash)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil {
		// The job outran the cancel; its snapshot was dropped on success and
		// there is nothing left to converge — the soak parameters are wrong.
		return fmt.Errorf("checkpoint job finished before it could be preempted; raise its steps")
	}
	if fleet[0].Server.HasCheckpoint(ckptHash) || fleet[2].Server.HasCheckpoint(ckptHash) {
		return fmt.Errorf("a replica of %.12s escaped a full partition", ckptHash)
	}

	// Under the partition, anti-entropy must NOT converge.
	if repaired := fleet[1].Node.AntiEntropy(context.Background()); repaired != 0 {
		return fmt.Errorf("anti-entropy repaired %d snapshots across a full partition", repaired)
	}

	// Heal, let the breakers' cooldown pass, and require convergence: some
	// surviving member must end up holding the replica.
	fabric.HealAll()
	deadline = time.Now().Add(10 * time.Second)
	repaired := 0
	for !fleet[0].Server.HasCheckpoint(ckptHash) && !fleet[2].Server.HasCheckpoint(ckptHash) {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica of %.12s never re-converged after heal (repaired=%d)", ckptHash, repaired)
		}
		time.Sleep(100 * time.Millisecond) // breaker cooldown between passes
		repaired += fleet[1].Node.AntiEntropy(context.Background())
	}

	// Resubmit through coordinator n1: the job must resume from a barrier
	// (not restart) and reproduce the uninterrupted solo result exactly.
	canon, ranOn, err := dispatchJob(fleet[0].URL, ckptSpec)
	if err != nil {
		return fmt.Errorf("resubmitting checkpoint job after heal: %w", err)
	}
	if canon != refCkpt {
		return fmt.Errorf("resumed job diverged from the uninterrupted reference")
	}
	var resumed uint64
	for _, n := range fleet {
		resumed += n.Server.MetricsSnapshot().JobsResumed
	}
	if resumed == 0 {
		return fmt.Errorf("job re-simulated from scratch instead of resuming from the repaired replica")
	}
	log.Printf("phase 3 partition: n2 isolated mid-job, healed, anti-entropy repaired %d replica(s); job resumed on %s byte-identical",
		repaired, ranOn)
	return nil
}

// checkGoroutines waits for the goroutine count to settle back to the
// pre-soak baseline (small slack for the runtime's own background threads).
func checkGoroutines(baseline int) error {
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			return fmt.Errorf("goroutine leak: %d at start, %d after soak\n%s", baseline, now, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

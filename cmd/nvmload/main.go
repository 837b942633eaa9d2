// Command nvmload is the cluster load generator and demo orchestrator for
// nvmserved.
//
// Client mode (default) drives an existing coordinator:
//
//	nvmload -coordinator http://127.0.0.1:8077 [-points 24] [-repeats 2]
//	        [-region 64K] [-steps 20000]
//
// It fans a seed sweep through POST /v1/cluster/sweep, reports wall time and
// throughput per repeat, and verifies that repeats return byte-identical
// results (the determinism contract that makes the distributed cache sound).
//
// Demo mode orchestrates the full three-node story on loopback:
//
//	nvmload -demo -serve-bin ./nvmserved [-points 24] [-throughput-points 48]
//	        [-handicap 400ms] [-hedge-after 150ms] [-keep-logs]
//
// Phases:
//  1. Reference: a single node runs every sweep; canonical results and solo
//     throughput are recorded.
//  2. Throughput: a clean three-node fleet reruns the big sweep through the
//     coordinator — verifies byte-identity and reports the 1→3 speedup
//     (asserted only on hosts with enough cores for scaling to be physical).
//  3. Peer fill: a sweep already computed by the fleet is submitted to a
//     non-coordinator's *local* endpoint — verifies results computed
//     elsewhere arrive via peer cache fill, not re-simulation.
//  4. Hedge: a fresh fleet with one handicapped member — verifies straggler
//     dispatches are hedged to a second replica and the hedge wins.
//  5. Kill: one node SIGKILLed mid-sweep — verifies the sweep completes with
//     byte-identical results and the dead peer's breaker opens.
//  6. Preempt: a fresh fleet with durable state dirs runs one long
//     checkpointing job; its runner is SIGKILLed mid-job — verifies the job
//     resumes from a replicated barrier snapshot on a surviving node
//     (jobs_resumed > 0, not a from-scratch re-simulation) and the resumed
//     result is byte-identical to the uninterrupted reference.
//
// Dash mode boots a 2-node in-process loopback fleet, runs one job, and
// validates the fleet dashboard payload on every member (`make dash-smoke`):
//
//	nvmload -dash [-dash-out dash.json]
//
// Exit status is non-zero if any verification fails, which is what lets
// `make cluster-smoke` gate CI on the cluster actually working.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "coordinator base URL (client mode)")
		points      = flag.Int("points", 24, "sweep points (distinct seeds)")
		repeats     = flag.Int("repeats", 2, "client mode: how many times to run the sweep")
		region      = flag.String("region", "64K", "chase region per job")
		steps       = flag.Int("steps", 20000, "chase steps per job")
		demo        = flag.Bool("demo", false, "run the 3-node loopback demo/orchestration")
		serveBin    = flag.String("serve-bin", "", "demo: path to the nvmserved binary")
		tpPoints    = flag.Int("throughput-points", 48, "demo: points in the throughput sweep")
		tpSteps     = flag.Int("throughput-steps", 60000, "demo: chase steps per throughput/kill job")
		killPoints  = flag.Int("kill-points", 32, "demo: points in the kill-phase sweep")
		handicap    = flag.Duration("handicap", 400*time.Millisecond, "demo: artificial slowness of the straggler node")
		hedgeAfter  = flag.Duration("hedge-after", 150*time.Millisecond, "demo: fixed hedge budget passed to all nodes")
		workers     = flag.Int("workers", 2, "demo: workers per node")
		keepLogs    = flag.Bool("keep-logs", false, "demo: stream node logs to stderr")
		chaosMode   = flag.Bool("chaos", false, "run the seeded in-process chaos soak (no -serve-bin needed)")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "chaos: fault-schedule seed (same seed replays the same faults)")
		dashMode    = flag.Bool("dash", false, "run the 2-node in-process fleet dashboard smoke")
		dashOut     = flag.String("dash-out", "", "dash: write the fetched dashboard payload to FILE")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("nvmload: ")

	if *chaosMode {
		cr := &chaosRun{
			seed: *chaosSeed, points: *points, region: *region,
			steps: *steps, workers: *workers,
		}
		if err := cr.run(); err != nil {
			log.Fatalf("CHAOS SOAK FAILED: %v", err)
		}
		log.Print("chaos soak passed: byte-identity, bounded attempts, quarantine, anti-entropy convergence, replayable schedule, no leaks")
		return
	}

	if *dashMode {
		dr := &dashRun{region: *region, steps: *steps, workers: *workers, out: *dashOut}
		if err := dr.run(); err != nil {
			log.Fatalf("DASH SMOKE FAILED: %v", err)
		}
		log.Print("dash smoke passed: every member serves fleet-wide stage aggregates and a stable verdict tally")
		return
	}

	if *demo {
		if *serveBin == "" {
			log.Fatal("-demo requires -serve-bin (path to nvmserved)")
		}
		d := &demoRun{
			serveBin: *serveBin, points: *points, tpPoints: *tpPoints,
			killPoints: *killPoints, region: *region, steps: *steps,
			tpSteps: *tpSteps, handicap: *handicap, hedgeAfter: *hedgeAfter,
			workers: *workers, keepLogs: *keepLogs,
		}
		if err := d.run(); err != nil {
			log.Fatalf("DEMO FAILED: %v", err)
		}
		log.Print("demo passed: sharding, peer fill, hedging, kill-rerouting, and checkpointed preemption all verified")
		return
	}

	if *coordinator == "" {
		log.Fatal("need -coordinator URL (or -demo, -chaos or -dash)")
	}
	sweep := seedSweep(*region, *steps, 1, *points)
	var first map[int]string
	for r := 0; r < *repeats; r++ {
		res, err := runSweep(*coordinator+"/v1/cluster/sweep", sweep)
		if err != nil {
			log.Fatalf("sweep %d: %v", r, err)
		}
		log.Printf("sweep %d: %d/%d points in %.0fms (%.1f jobs/s, %d hedged, %d rerouted)",
			r, res.completed, res.points, res.elapsed.Seconds()*1e3,
			float64(res.points)/res.elapsed.Seconds(), res.hedged, res.rerouted)
		if r == 0 {
			first = res.canon
		} else if err := sameResults(first, res.canon); err != nil {
			log.Fatalf("repeat %d diverged: %v", r, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Sweep driving and verification (shared by client and demo modes)

// seedSweep builds the standard sweep request: one chase job per seed.
func seedSweep(region string, steps, seedBase, points int) map[string]any {
	vals := make([]string, points)
	for i := range vals {
		vals[i] = strconv.Itoa(seedBase + i)
	}
	return map[string]any{
		"base": map[string]any{
			"workload": map[string]any{
				"kind": "chase", "region": region, "max_steps": steps,
			},
		},
		"parameter": "seed",
		"values":    vals,
	}
}

// sweepResult summarizes one NDJSON sweep stream.
type sweepResult struct {
	points, completed, failed int
	hedged, rerouted          int
	peerFilled                int
	maxAttempts               int // largest per-dispatch attempt count seen
	elapsed                   time.Duration
	canon                     map[int]string // index -> canonical result JSON
}

// runSweep posts a sweep request and consumes the NDJSON stream. It works
// against both the cluster endpoint (/v1/cluster/sweep) and a node's local
// endpoint (/v1/sweep); the line shapes share every field we read.
func runSweep(url string, sweep map[string]any) (*sweepResult, error) {
	body, err := json.Marshal(sweep)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("sweep status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	res := &sweepResult{canon: make(map[int]string)}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var line struct {
			SweepDone *bool           `json:"sweep_done"`
			Index     *int            `json:"index"`
			Error     string          `json:"error"`
			Result    json.RawMessage `json:"result"`
			Route     struct {
				Hedged   bool `json:"hedged"`
				Reroutes int  `json:"reroutes"`
				Attempts int  `json:"attempts"`
			} `json:"route"`
			Job struct {
				State      string `json:"state"`
				PeerFilled bool   `json:"peer_filled"`
			} `json:"job"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("bad NDJSON line: %v", err)
		}
		if line.SweepDone != nil {
			break
		}
		if line.Index == nil {
			return nil, fmt.Errorf("stream error: %s", line.Error)
		}
		res.points++
		if line.Error != "" || (line.Job.State != "" && line.Job.State != "done") {
			res.failed++
			continue
		}
		res.completed++
		if line.Route.Hedged {
			res.hedged++
		}
		if line.Route.Reroutes > 0 {
			res.rerouted++
		}
		if line.Route.Attempts > res.maxAttempts {
			res.maxAttempts = line.Route.Attempts
		}
		if line.Job.PeerFilled {
			res.peerFilled++
		}
		if len(line.Result) > 0 {
			res.canon[*line.Index] = string(line.Result)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// sameResults verifies two sweeps produced byte-identical canonical results
// point for point.
func sameResults(want, got map[int]string) error {
	if len(want) != len(got) {
		return fmt.Errorf("point count differs: %d vs %d", len(want), len(got))
	}
	for i, w := range want {
		g, ok := got[i]
		if !ok {
			return fmt.Errorf("point %d missing", i)
		}
		if w != g {
			return fmt.Errorf("point %d result differs:\n  want %.120s...\n  got  %.120s...", i, w, g)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Demo orchestration

type demoRun struct {
	serveBin                       string
	points, tpPoints, killPoints   int
	region                         string
	steps, tpSteps                 int
	handicap, hedgeAfter           time.Duration
	workers                        int
	keepLogs                       bool
	procs                          []*exec.Cmd
	stateDirs                      []string
	sweepA, sweepT, sweepH, sweepB map[string]any
	refA, refT, refH, refB         map[int]string
	ckptSpec                       server.JobSpec
	refCkpt                        string
	soloT                          time.Duration
}

type demoNode struct {
	id   string
	addr string
	url  string
}

func (d *demoRun) run() error {
	defer d.stopAll()
	defer func() {
		for _, dir := range d.stateDirs {
			os.RemoveAll(dir)
		}
	}()
	// Distinct seed ranges keep the four sweeps' job hashes disjoint, so no
	// phase can be satisfied by a cache warmed in an earlier one.
	d.sweepA = seedSweep(d.region, d.steps, 1, d.points)
	d.sweepT = seedSweep(d.region, d.tpSteps, 1001, d.tpPoints)
	d.sweepH = seedSweep(d.region, d.steps, 2001, d.points)
	d.sweepB = seedSweep(d.region, d.tpSteps, 3001, d.killPoints)
	var err0 error
	if d.ckptSpec, err0 = ckptSpecOwnedBy("n2"); err0 != nil {
		return fmt.Errorf("choosing preempt job: %w", err0)
	}

	if err := d.phaseReference(); err != nil {
		return fmt.Errorf("reference phase: %w", err)
	}

	// Clean fleet: throughput scaling and peer cache fill.
	nodes, err := d.startFleet(0, false)
	if err != nil {
		return fmt.Errorf("starting clean fleet: %w", err)
	}
	if err := d.phaseThroughput(nodes); err != nil {
		return fmt.Errorf("throughput phase: %w", err)
	}
	if err := d.phasePeerFill(nodes); err != nil {
		return fmt.Errorf("peer fill phase: %w", err)
	}
	d.stopAll()

	// Handicapped fleet: hedged dispatch, then SIGKILL survival.
	nodes, err = d.startFleet(d.handicap, false)
	if err != nil {
		return fmt.Errorf("starting handicapped fleet: %w", err)
	}
	if err := d.phaseHedge(nodes); err != nil {
		return fmt.Errorf("hedge phase: %w", err)
	}
	if err := d.phaseKill(nodes); err != nil {
		return fmt.Errorf("kill phase: %w", err)
	}
	d.stopAll()

	// Durable fleet: checkpointed preemption and cross-node resume.
	nodes, err = d.startFleet(0, true)
	if err != nil {
		return fmt.Errorf("starting durable fleet: %w", err)
	}
	if err := d.phasePreempt(nodes); err != nil {
		return fmt.Errorf("preempt phase: %w", err)
	}
	return nil
}

// ckptSpecOwnedBy scans seeds for a long checkpointing chase job whose
// canonical hash is owned by the wanted member of the standard n1/n2/n3 ring
// (every ring places the same virtual points, so the client-side ring
// matches).
func ckptSpecOwnedBy(owner string) (server.JobSpec, error) {
	ring, err := cluster.NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		return server.JobSpec{}, err
	}
	for seed := uint64(4001); seed < 4500; seed++ {
		// An 8M chase region caps the stream at 128Ki accesses (~0.5s of
		// simulation): long enough to SIGKILL mid-job, short enough for CI.
		// CkptEvery 5000 gives the runner ~26 barriers to replicate.
		spec := server.JobSpec{
			Workload:  server.WorkloadSpec{Kind: server.KindChase, Region: "8M", MaxSteps: 200000},
			Seed:      seed,
			CkptEvery: 5000,
		}
		p, err := spec.Compile()
		if err != nil {
			return server.JobSpec{}, err
		}
		if ring.Owner(p.Hash()) == owner {
			return spec, nil
		}
	}
	return server.JobSpec{}, fmt.Errorf("no seed in [4001,4500) hashes onto %s", owner)
}

// phaseReference computes every sweep's expected canonical results on a
// single isolated node, timing the throughput sweep for the 1→3 comparison.
func (d *demoRun) phaseReference() error {
	n, err := d.startNode("ref", nil, 0)
	if err != nil {
		return err
	}
	defer d.stopAll()
	run := func(name string, sweep map[string]any, want int) (map[int]string, time.Duration, error) {
		res, err := runSweep(n.url+"/v1/cluster/sweep", sweep)
		if err != nil {
			return nil, 0, fmt.Errorf("solo sweep %s: %w", name, err)
		}
		if res.completed != want {
			return nil, 0, fmt.Errorf("solo sweep %s completed %d/%d", name, res.completed, want)
		}
		return res.canon, res.elapsed, nil
	}
	if d.refA, _, err = run("A", d.sweepA, d.points); err != nil {
		return err
	}
	if d.refT, d.soloT, err = run("T", d.sweepT, d.tpPoints); err != nil {
		return err
	}
	if d.refH, _, err = run("H", d.sweepH, d.points); err != nil {
		return err
	}
	if d.refB, _, err = run("B", d.sweepB, d.killPoints); err != nil {
		return err
	}
	if d.refCkpt, _, err = dispatchJob(n.url, d.ckptSpec); err != nil {
		return fmt.Errorf("solo preempt-job reference: %w", err)
	}
	log.Printf("phase 1 reference: solo node ran %d points (throughput sweep: %d points in %.0fms, %.1f jobs/s)",
		2*d.points+d.tpPoints+d.killPoints, d.tpPoints, d.soloT.Seconds()*1e3,
		float64(d.tpPoints)/d.soloT.Seconds())
	return nil
}

// startFleet boots the 3-node membership; a non-zero handicap slows node n3
// into the straggler role, and stateDirs gives every member a durable state
// directory (checkpoint replication and resume need one on each node).
func (d *demoRun) startFleet(handicap time.Duration, stateDirs bool) ([]demoNode, error) {
	addrs, err := reservePorts(3)
	if err != nil {
		return nil, err
	}
	peers := fmt.Sprintf("n1=%s,n2=%s,n3=%s", addrs[0], addrs[1], addrs[2])
	nodes := make([]demoNode, 3)
	for i := range nodes {
		id := fmt.Sprintf("n%d", i+1)
		var hc time.Duration
		if i == 2 {
			hc = handicap
		}
		extra := map[string]string{"-addr": addrs[i], "-peers": peers}
		if stateDirs {
			dir, err := os.MkdirTemp("", "nvmload-state-"+id+"-*")
			if err != nil {
				return nil, err
			}
			d.stateDirs = append(d.stateDirs, dir)
			extra["-state-dir"] = dir
		}
		n, err := d.startNode(id, extra, hc)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	return nodes, nil
}

// phaseThroughput runs the big sweep through the coordinator of a clean fleet
// and compares jobs/s against the solo reference. The speedup is asserted
// only where scaling is physical: three extra processes cannot beat one on a
// single-core host, so there the number is reported, not enforced.
func (d *demoRun) phaseThroughput(nodes []demoNode) error {
	res, err := runSweep(nodes[0].url+"/v1/cluster/sweep", d.sweepT)
	if err != nil {
		return err
	}
	if res.completed != d.tpPoints {
		return fmt.Errorf("fleet sweep completed %d/%d", res.completed, d.tpPoints)
	}
	if err := sameResults(d.refT, res.canon); err != nil {
		return fmt.Errorf("fleet results diverge from solo reference: %w", err)
	}
	speedup := d.soloT.Seconds() / res.elapsed.Seconds()
	log.Printf("phase 2 throughput: %d points byte-identical in %.0fms — %.1f jobs/s, %.2fx solo (%d cores)",
		d.tpPoints, res.elapsed.Seconds()*1e3,
		float64(d.tpPoints)/res.elapsed.Seconds(), speedup, runtime.NumCPU())
	if runtime.NumCPU() >= 6 && speedup < 1.4 {
		return fmt.Errorf("expected near-linear scaling on %d cores, got %.2fx", runtime.NumCPU(), speedup)
	}
	return nil
}

// phasePeerFill reruns the throughput sweep against n2's *local* sweep
// endpoint: n2 does not own most of those hashes, so completing without
// re-simulating means peer cache fill did the work.
func (d *demoRun) phasePeerFill(nodes []demoNode) error {
	res, err := runSweep(nodes[1].url+"/v1/sweep", d.sweepT)
	if err != nil {
		return err
	}
	if res.completed != d.tpPoints {
		return fmt.Errorf("local sweep on n2 completed %d/%d", res.completed, d.tpPoints)
	}
	if err := sameResults(d.refT, res.canon); err != nil {
		return fmt.Errorf("peer-filled results diverge: %w", err)
	}
	if res.peerFilled == 0 {
		return fmt.Errorf("no point was peer-filled; n2 re-simulated everything")
	}
	log.Printf("phase 3 peer fill: n2 served %d/%d points from peer caches, byte-identical",
		res.peerFilled, d.tpPoints)
	return nil
}

// phaseHedge sweeps fresh seeds through a fleet whose n3 is handicapped:
// every n3-owned dispatch exceeds the fixed hedge budget, so the coordinator
// must hedge to a second replica and the fast replica must win.
func (d *demoRun) phaseHedge(nodes []demoNode) error {
	res, err := runSweep(nodes[0].url+"/v1/cluster/sweep", d.sweepH)
	if err != nil {
		return err
	}
	if res.completed != d.points {
		return fmt.Errorf("hedge sweep completed %d/%d", res.completed, d.points)
	}
	if err := sameResults(d.refH, res.canon); err != nil {
		return fmt.Errorf("hedged results diverge: %w", err)
	}
	info, err := clusterInfo(nodes[0].url)
	if err != nil {
		return err
	}
	if info.HedgesFired == 0 {
		return fmt.Errorf("handicapped node never triggered a hedge (hedges_fired=0)")
	}
	log.Printf("phase 4 hedge: straggler n3 (+%s/job) hedged around — fired=%d won=%d, %d points byte-identical",
		d.handicap, info.HedgesFired, info.HedgesWon, d.points)
	return nil
}

// phaseKill SIGKILLs n2 mid-sweep and requires the coordinator to finish the
// sweep anyway, with results identical to the reference.
func (d *demoRun) phaseKill(nodes []demoNode) error {
	killed := make(chan error, 1)
	go func() {
		// Give the sweep a moment to be genuinely in flight, then pull the
		// plug on n2 with no warning whatsoever. The fleet procs are
		// [n1, n2, n3] (earlier fleets were cleared by stopAll).
		time.Sleep(150 * time.Millisecond)
		killed <- d.procs[1].Process.Kill()
	}()
	res, err := runSweep(nodes[0].url+"/v1/cluster/sweep", d.sweepB)
	if err != nil {
		return err
	}
	if kerr := <-killed; kerr != nil {
		return fmt.Errorf("killing n2: %v", kerr)
	}
	if res.completed != d.killPoints {
		return fmt.Errorf("post-kill sweep completed %d/%d (failed %d)",
			res.completed, d.killPoints, res.failed)
	}
	if err := sameResults(d.refB, res.canon); err != nil {
		return fmt.Errorf("post-kill results diverge: %w", err)
	}
	info, err := clusterInfo(nodes[0].url)
	if err != nil {
		return err
	}
	log.Printf("phase 5 kill: n2 SIGKILLed mid-sweep, %d points still completed byte-identical (reroutes=%d, peers unhealthy=%d)",
		d.killPoints, info.Reroutes, info.PeersUnhealthy)
	return nil
}

// phasePreempt SIGKILLs the node running a long checkpointing job and
// requires the job to finish anyway — resumed from a replicated barrier
// snapshot on a survivor, byte-identical to the uninterrupted reference.
func (d *demoRun) phasePreempt(nodes []demoNode) error {
	type answer struct {
		canon, node string
		err         error
	}
	done := make(chan answer, 1)
	go func() {
		canon, node, err := dispatchJob(nodes[0].url, d.ckptSpec)
		done <- answer{canon: canon, node: node, err: err}
	}()

	// SIGKILL the runner n2, with no warning, as soon as a survivor reports a
	// replicated snapshot: the job is then mid-stream (it runs ~0.5s and
	// checkpoints every ~20ms) and a resume is possible. A job that finishes
	// first has exercised nothing, so that fails the phase.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for replicated := false; !replicated; {
		select {
		case a := <-done:
			return fmt.Errorf("preempt job ended (err=%v) before any survivor received a snapshot; resume not exercised", a.err)
		case <-tick.C:
		}
		for _, n := range []demoNode{nodes[0], nodes[2]} {
			info, err := clusterInfo(n.url)
			if err != nil {
				return fmt.Errorf("scraping %s: %w", n.id, err)
			}
			replicated = replicated || info.CkptReceived > 0
		}
	}
	if err := d.procs[1].Process.Kill(); err != nil {
		return fmt.Errorf("killing n2: %v", err)
	}
	a := <-done
	if a.err != nil {
		return fmt.Errorf("dispatch after killing the runner: %w", a.err)
	}
	if a.node == "n2" {
		return fmt.Errorf("dead runner n2 reported as the winner")
	}
	if a.canon != d.refCkpt {
		return fmt.Errorf("resumed result diverges from the uninterrupted reference")
	}

	// The winner must have resumed from a replicated snapshot, not restarted.
	var resumed, received uint64
	for _, n := range nodes {
		if n.id == "n2" {
			continue
		}
		m, err := nodeMetrics(n.url)
		if err != nil {
			return fmt.Errorf("scraping %s: %w", n.id, err)
		}
		resumed += m.JobsResumed
		info, err := clusterInfo(n.url)
		if err != nil {
			return err
		}
		received += info.CkptReceived
	}
	if resumed == 0 {
		return fmt.Errorf("no survivor resumed from a checkpoint; the job was re-simulated from scratch")
	}
	log.Printf("phase 6 preempt: runner n2 SIGKILLed mid-job, %s resumed from a replicated snapshot — byte-identical (snapshots received=%d)",
		a.node, received)
	return nil
}

// dispatchJob runs one job through a coordinator's cluster endpoint and
// returns the reply's result, which is the canonical result JSON as it
// arrived, plus the winning node.
func dispatchJob(coordURL string, spec server.JobSpec) (canon, node string, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", "", err
	}
	resp, err := http.Post(coordURL+"/v1/cluster/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", "", fmt.Errorf("dispatch status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var dr struct {
		Route struct {
			Node string `json:"node"`
		} `json:"route"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return "", "", err
	}
	return string(dr.Result), dr.Route.Node, nil
}

// nodeMetrics scrapes the local scheduler counters the demo asserts on.
type schedMetrics struct {
	JobsResumed uint64 `json:"jobs_resumed"`
}

func nodeMetrics(url string) (*schedMetrics, error) {
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m schedMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// startNode spawns one nvmserved process and waits for it to become healthy.
func (d *demoRun) startNode(id string, extra map[string]string, handicap time.Duration) (demoNode, error) {
	args := []string{
		"-node-id", id,
		"-workers", strconv.Itoa(d.workers),
		"-queue", "256",
		"-hedge-after", d.hedgeAfter.String(),
		"-drain-timeout", "2s",
	}
	if _, ok := extra["-addr"]; !ok {
		args = append(args, "-addr", "127.0.0.1:0")
	}
	for k, v := range extra {
		args = append(args, k, v)
	}
	if handicap > 0 {
		args = append(args, "-handicap", handicap.String())
	}
	cmd := exec.Command(d.serveBin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return demoNode{}, err
	}
	if err := cmd.Start(); err != nil {
		return demoNode{}, err
	}
	d.procs = append(d.procs, cmd)

	// The daemon logs its resolved address; scrape it so -addr :0 works.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if d.keepLogs {
				fmt.Fprintf(os.Stderr, "[%s] %s\n", id, line)
			}
			// Log lines carry a timestamp prefix, so match by substring:
			// "... nvmserved: listening on 127.0.0.1:PORT (node=...)".
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				if a, _, _ := strings.Cut(rest, " "); a != "" {
					select {
					case addrc <- a:
					default:
					}
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(10 * time.Second):
		return demoNode{}, fmt.Errorf("node %s never reported its address", id)
	}
	n := demoNode{id: id, addr: addr, url: "http://" + addr}
	if err := waitHealthy(n.url, 10*time.Second); err != nil {
		return demoNode{}, fmt.Errorf("node %s: %w", id, err)
	}
	return n, nil
}

func (d *demoRun) stopAll() {
	for _, p := range d.procs {
		if p.Process != nil {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}
	d.procs = nil
}

// waitHealthy polls /v1/healthz until it answers 200.
func waitHealthy(url string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("not healthy within %s", budget)
}

// clusterInfo scrapes the counters nvmload asserts on.
type infoCounters struct {
	HedgesFired    uint64 `json:"hedges_fired"`
	HedgesWon      uint64 `json:"hedges_won"`
	Reroutes       uint64 `json:"reroutes"`
	PeerFillHits   uint64 `json:"peer_fill_hits"`
	PeersUnhealthy int    `json:"peers_unhealthy"`
	CkptReplicated uint64 `json:"ckpt_replicated"`
	CkptReceived   uint64 `json:"ckpt_received"`
	CkptRecovered  uint64 `json:"ckpt_recovered"`
}

func clusterInfo(url string) (*infoCounters, error) {
	resp, err := http.Get(url + "/v1/cluster/info")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var info infoCounters
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// reservePorts grabs n distinct loopback ports by binding and releasing
// them. The tiny release-to-reuse window is acceptable for local demos.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

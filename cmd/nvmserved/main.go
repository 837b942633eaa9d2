// Command nvmserved runs the VANS simulator as a long-lived HTTP service: a
// bounded job queue feeding a worker pool (one isolated simulator per
// worker), an LRU result cache keyed by the canonical job hash, service
// metrics, and a parameter-sweep endpoint.
//
// Usage:
//
//	nvmserved [-addr :8077] [-workers N] [-queue 64] [-cache 256]
//	          [-job-timeout 60s] [-drain-timeout 30s]
//	          [-max-retries 2] [-retry-base 10ms] [-retry-max 500ms]
//	          [-breaker-threshold 5] [-breaker-cooldown 5s]
//	          [-node-id n1] [-peers n1=host:port,n2=host:port,...]
//	          [-hedge-after 0] [-attempt-budget 0] [-dispatch-timeout 0]
//	          [-quarantine-threshold 0] [-probe-every 0] [-anti-entropy 0]
//	          [-handicap 0] [-state-dir DIR] [-debug-addr localhost:6060]
//
// -state-dir makes the daemon preemptible: checkpointing jobs write barrier
// snapshots there, finished results persist across restarts, and SIGTERM
// drains into checkpoints — in-flight checkpointing jobs stop at the next
// barrier and resume from it when resubmitted to a restarted (or peer)
// daemon. In cluster mode each snapshot is also replicated to the hash's
// ring successor, so a SIGKILLed node's jobs resume on the survivor.
//
// Cluster mode: -node-id names this member and -peers lists the full fixed
// membership (self included) as id=host:port pairs. Every node then serves
// the coordinator API (/v1/cluster/...) and the peer protocol (/v1/peer/...)
// alongside the local API: canonical job hashes are consistent-hashed onto
// the membership, results computed anywhere become cache hits everywhere via
// peer fill, and straggler dispatches are hedged to a second replica
// (first-answer-wins is safe because results are deterministic). Without
// -peers the daemon is a cluster of one: the cluster API works and always
// dispatches locally.
//
// -addr :0 binds an ephemeral port; the resolved address is logged and
// surfaced in /v1/healthz (with queue and cache gauges) so scripts and load
// generators can discover it deterministically.
//
// -handicap delays every locally simulated job by the given duration — a
// stand-in for a slow node when demoing hedged dispatch. Results are
// unaffected (they carry no wall-clock quantities).
//
// -debug-addr starts a second, opt-in listener serving net/http/pprof
// (/debug/pprof/...) so the daemon can be profiled live without exposing
// profiling endpoints on the public API address.
//
// See README.md "Running as a service" and "Running as a cluster" for the
// API and curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (debug listener only)
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", ":8077", "listen address (:0 binds an ephemeral port, resolved address is logged and in /v1/healthz)")
		workers       = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue         = flag.Int("queue", 64, "job queue depth")
		cache         = flag.Int("cache", 256, "result cache entries (negative disables)")
		jobTimeout    = flag.Duration("job-timeout", 60*time.Second, "per-job execution timeout")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain budget")
		maxRetries    = flag.Int("max-retries", 2, "retries for transient injected faults (negative disables)")
		retryBase     = flag.Duration("retry-base", 10*time.Millisecond, "first retry backoff (doubles per retry, with jitter)")
		retryMax      = flag.Duration("retry-max", 500*time.Millisecond, "retry backoff cap")
		brkThreshold  = flag.Int("breaker-threshold", 5, "consecutive engine failures that open the circuit breaker (negative disables)")
		brkCooldown   = flag.Duration("breaker-cooldown", 5*time.Second, "how long the breaker stays open before probing")
		nodeID        = flag.String("node-id", "n1", "this node's id in the cluster membership")
		peers         = flag.String("peers", "", "full cluster membership as id=host:port pairs, comma separated, self included (empty = single-node)")
		hedgeAfter    = flag.Duration("hedge-after", 0, "fixed straggler budget before hedging a dispatch (0 = adaptive p95)")
		attemptBudget = flag.Int("attempt-budget", 0, "max candidate launches per dispatch, hedge included (0 = members+1, negative = unbounded)")
		dispatchTO    = flag.Duration("dispatch-timeout", 0, "deadline for one whole dispatch, reroutes and hedge included (0 = 2x request timeout, negative disables)")
		quarThreshold = flag.Int("quarantine-threshold", 0, "corrupt responses that exile a peer from routing (0 = 3, negative disables)")
		probeEvery    = flag.Duration("probe-every", 0, "background peer health-probe period (0 disables; latency appears in /v1/cluster/info)")
		antiEntropy   = flag.Duration("anti-entropy", 0, "background checkpoint-replica repair period (0 disables)")
		handicap      = flag.Duration("handicap", 0, "artificial delay before each locally simulated job (slow-node demo knob)")
		stateDir      = flag.String("state-dir", "", "durable state directory for checkpoints and results (empty = in-memory only)")
		debugAddr     = flag.String("debug-addr", "", "optional pprof listener address, e.g. localhost:6060 (empty disables)")
	)
	flag.Parse()

	if *debugAddr != "" {
		go func() {
			// The pprof import registered its handlers on DefaultServeMux;
			// the main API listener uses its own mux, so profiling stays
			// reachable only through this address.
			log.Printf("nvmserved: pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("nvmserved: debug listener: %v", err)
			}
		}()
	}

	srv := server.New(server.Options{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cache,
		JobTimeout:       *jobTimeout,
		MaxRetries:       *maxRetries,
		RetryBaseDelay:   *retryBase,
		RetryMaxDelay:    *retryMax,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		Handicap:         *handicap,
		StateDir:         *stateDir,
	})

	// Bind before wiring the cluster so -addr :0 resolves to a concrete
	// port that /v1/healthz can advertise.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("nvmserved: listen %s: %v", *addr, err)
	}
	resolved := ln.Addr().String()
	srv.SetIdentity(*nodeID, resolved)

	members, err := parsePeers(*peers, *nodeID, resolved)
	if err != nil {
		log.Fatalf("nvmserved: %v", err)
	}
	node, err := cluster.NewNode(srv, cluster.Config{
		SelfID:              *nodeID,
		Peers:               members,
		HedgeAfter:          *hedgeAfter,
		AttemptBudget:       *attemptBudget,
		DispatchTimeout:     *dispatchTO,
		QuarantineThreshold: *quarThreshold,
		ProbeEvery:          *probeEvery,
		AntiEntropyEvery:    *antiEntropy,
	})
	if err != nil {
		log.Fatalf("nvmserved: %v", err)
	}
	node.Start()
	defer node.Close()
	httpSrv := &http.Server{Handler: node.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("nvmserved: listening on %s (node=%s members=%d workers=%d queue=%d cache=%d)",
			resolved, *nodeID, len(members), srv.Options().Workers, *queue, *cache)
		errc <- httpSrv.Serve(ln)
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("nvmserved: %s received, draining (budget %s)", sig, *drainTimeout)
	case err := <-errc:
		log.Printf("nvmserved: serve error: %v", err)
		srv.Shutdown(*drainTimeout)
		os.Exit(1)
	}

	// Drain the scheduler while HTTP stays up: draining flips immediately,
	// so new submissions get 503 (not connection refused) and clients
	// blocked on ?wait=1 see their jobs finish. Only then close HTTP.
	sum, clean := srv.ShutdownDrain(*drainTimeout)
	if clean {
		log.Printf("nvmserved: drained cleanly (finished=%d checkpointed=%d)",
			sum.Finished, sum.Checkpointed)
	} else {
		log.Printf("nvmserved: drain timeout (finished=%d checkpointed=%d canceled=%d)",
			sum.Finished, sum.Checkpointed, sum.Canceled)
		if sum.Checkpointed > 0 {
			log.Print("nvmserved: checkpointed jobs resume from -state-dir on resubmission")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("nvmserved: http shutdown: %v", err)
	}
}

// parsePeers turns "n1=host:port,n2=host:port" into the cluster membership,
// defaulting to a single-member cluster of self. Peer addresses become
// http:// base URLs (an explicit http:// prefix is accepted and not doubled);
// the self entry keeps the resolved listen address.
func parsePeers(spec, self, selfAddr string) ([]cluster.Peer, error) {
	if strings.TrimSpace(spec) == "" {
		return []cluster.Peer{{ID: self, URL: "http://" + selfAddr}}, nil
	}
	var members []cluster.Peer
	selfSeen := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=host:port)", part)
		}
		if id == self {
			selfSeen = true
			addr = selfAddr
		}
		// A scheme-bearing address ("http://host:port") was an easy mistake
		// that used to produce an undialable http://http:// URL — every peer
		// showed stale and dispatch silently fell back to reroute.
		addr = strings.TrimPrefix(addr, "http://")
		if strings.Contains(addr, "://") {
			return nil, fmt.Errorf("bad -peers entry %q (want id=host:port, http only)", part)
		}
		members = append(members, cluster.Peer{ID: id, URL: "http://" + addr})
	}
	if !selfSeen {
		return nil, fmt.Errorf("-peers must include this node's id %q", self)
	}
	return members, nil
}

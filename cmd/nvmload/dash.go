package main

// Dashboard smoke mode (-dash): boot a 2-node in-process loopback fleet, run
// one job through the coordinator, then fetch /v1/dashboard/data from every
// member and validate the payload: both members present and live, the
// completed job's verdict counted fleet-wide, per-stage latency aggregates
// non-empty and structurally sound, and the verdict tally identical no matter
// which member serves the page. -dash-out writes the coordinator's payload to
// a file so `tracecheck -dash` can validate the same bytes CI archives.

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// dashRun is the dashboard smoke configuration.
type dashRun struct {
	region  string
	steps   int
	workers int
	out     string
}

func (d *dashRun) run() error {
	const nNodes = 2
	fleet, err := cluster.StartLoopback(nNodes, func(int, string, string) cluster.MemberSetup {
		return cluster.MemberSetup{Options: server.Options{
			Workers: d.workers, QueueDepth: 64, CacheEntries: 64,
			JobTimeout: 30 * time.Second,
		}}
	})
	if err != nil {
		return err
	}
	defer fleet.Stop()

	spec := server.JobSpec{
		Workload: server.WorkloadSpec{Kind: server.KindChase, Region: d.region, MaxSteps: d.steps},
		Seed:     1,
	}
	_, winner, err := dispatchJob(fleet[0].URL, spec)
	if err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	log.Printf("dash: job ran on %s", winner)

	var refVerdicts map[string]uint64
	var refPayload []byte
	for i, n := range fleet {
		payload, data, err := fetchDash(n.URL)
		if err != nil {
			return fmt.Errorf("%s: %w", n.ID, err)
		}
		if err := validateDash(data, n.ID, nNodes); err != nil {
			return fmt.Errorf("%s: %w", n.ID, err)
		}
		if i == 0 {
			refVerdicts, refPayload = data.Verdicts, payload
			continue
		}
		if err := sameVerdicts(refVerdicts, data.Verdicts); err != nil {
			return fmt.Errorf("verdict tallies differ between members: %w", err)
		}
	}

	// Stability: a refetch with no intervening jobs must tally identically.
	_, again, err := fetchDash(fleet[0].URL)
	if err != nil {
		return fmt.Errorf("refetch: %w", err)
	}
	if err := sameVerdicts(refVerdicts, again.Verdicts); err != nil {
		return fmt.Errorf("verdict tally unstable across refetch: %w", err)
	}

	if d.out != "" {
		if err := os.WriteFile(d.out, refPayload, 0o644); err != nil {
			return err
		}
		log.Printf("dash: wrote payload to %s", d.out)
	}
	return nil
}

// fetchDash pulls one member's fleet dashboard payload.
func fetchDash(url string) ([]byte, *cluster.DashboardData, error) {
	resp, err := http.Get(url + "/v1/dashboard/data")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("dashboard data status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, nil, err
	}
	var data cluster.DashboardData
	if err := json.Unmarshal(body, &data); err != nil {
		return nil, nil, fmt.Errorf("undecodable dashboard payload: %w", err)
	}
	return body, &data, nil
}

// validateDash checks the payload shape the dashboard contract promises.
func validateDash(data *cluster.DashboardData, wantSelf string, wantMembers int) error {
	if data.Self != wantSelf {
		return fmt.Errorf("self = %q, want %q", data.Self, wantSelf)
	}
	if len(data.Fleet) != wantMembers {
		return fmt.Errorf("fleet has %d members, want %d", len(data.Fleet), wantMembers)
	}
	for _, nd := range data.Fleet {
		if nd.ID == "" {
			return fmt.Errorf("fleet member with empty id")
		}
		if nd.Stale {
			return fmt.Errorf("member %s stale on a healthy loopback fleet: %s", nd.ID, nd.Error)
		}
		if nd.Metrics == nil {
			return fmt.Errorf("live member %s has no metrics", nd.ID)
		}
	}
	if len(data.Stages) == 0 {
		return fmt.Errorf("no fleet-wide stage aggregates")
	}
	for _, h := range data.Stages {
		if h.Name == "" {
			return fmt.Errorf("stage histogram with empty name")
		}
		if len(h.Counts) != len(h.Bounds)+1 {
			return fmt.Errorf("stage %s: %d counts for %d bounds", h.Name, len(h.Counts), len(h.Bounds))
		}
	}
	if len(data.Verdicts) == 0 {
		return fmt.Errorf("no verdict after a completed job")
	}
	for regime, c := range data.Verdicts {
		if regime == "" || c == 0 {
			return fmt.Errorf("degenerate verdict entry %q=%d", regime, c)
		}
	}
	return nil
}

// sameVerdicts compares two fleet verdict tallies.
func sameVerdicts(a, b map[string]uint64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d regimes", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			return fmt.Errorf("regime %q: %d vs %d", k, v, b[k])
		}
	}
	return nil
}

package cluster

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	_ "embed"

	"repro/internal/obs"
	"repro/internal/server"
)

// dashboardHTML is the entire dashboard UI: one self-contained page, no
// external assets, embedded in the binary so every cluster member serves it
// even when air-gapped.
//
//go:embed dashboard.html
var dashboardHTML []byte

// NodeDash is one member's dashboard contribution: its build identity,
// service metrics (queue depth, cache residency, checkpoint and chaos-era
// counters), verdict tallies, and per-stage simulated-latency distributions.
// Stale marks a member whose data could not be fetched (partitioned,
// breaker-open, or quarantined); its other fields are then zero and the
// Error says why — the page renders around it instead of blocking on it.
type NodeDash struct {
	ID       string                  `json:"id"`
	Revision string                  `json:"revision,omitempty"`
	Stale    bool                    `json:"stale,omitempty"`
	Error    string                  `json:"error,omitempty"`
	Metrics  *server.MetricsSnapshot `json:"metrics,omitempty"`
	Verdicts map[string]uint64       `json:"verdicts,omitempty"`
	Stages   []obs.HistogramDump     `json:"stages,omitempty"`
}

// DashboardData is the JSON shape of GET /v1/dashboard/data: every member's
// contribution (self always fresh, unreachable peers marked stale), plus the
// fleet-wide aggregation — per-stage histograms merged across members,
// verdict counts summed — and the cluster health snapshot.
type DashboardData struct {
	Self     string              `json:"self"`
	Fleet    []NodeDash          `json:"fleet"`
	Stages   []obs.HistogramDump `json:"stages"`
	Verdicts map[string]uint64   `json:"verdicts,omitempty"`
	Cluster  InfoSnapshot        `json:"cluster"`
}

// localDash snapshots this node's own dashboard contribution.
func (n *Node) localDash() NodeDash {
	m := n.local.MetricsSnapshot()
	return NodeDash{
		ID:       n.cfg.SelfID,
		Revision: server.BuildRevision(),
		Metrics:  &m,
		Verdicts: n.local.VerdictCounts(),
		Stages:   n.local.StageDumps(),
	}
}

// dashFanoutTimeout bounds one peer's dashboard fetch: an unreachable member
// delays the page by at most this before being marked stale. Deliberately
// shorter than the peer-run budget — a dashboard is a glance, not a job.
const dashFanoutTimeout = 2 * time.Second

// Dashboard assembles the fleet-wide dashboard payload. Peer contributions
// are fetched concurrently; quarantined members are never dialed (their bytes
// cannot be trusted), breaker-open members are skipped until their cooldown
// probe recovers, and a fetch that fails or times out yields a stale entry
// rather than an error — a partition degrades the page, never blanks it.
func (n *Node) Dashboard(ctx context.Context) DashboardData {
	fleet := make([]NodeDash, 0, len(n.peers)+1)
	fleet = append(fleet, n.localDash())
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ps := range n.peers {
		wg.Add(1)
		go func(ps *peerState) {
			defer wg.Done()
			nd := NodeDash{ID: ps.id, Stale: true}
			switch {
			case ps.quarantined.Load():
				nd.Error = "quarantined"
			case !ps.brk.Ready():
				nd.Error = "breaker open"
			default:
				fctx, cancel := context.WithTimeout(ctx, dashFanoutTimeout)
				got, err := n.client.FetchDashboard(fctx, ps.url)
				cancel()
				if err != nil {
					nd.Error = err.Error()
					n.chargePeer(ps, err)
				} else {
					ps.brk.RecordSuccess()
					nd = got
					nd.ID = ps.id
					nd.Stale = false
				}
			}
			mu.Lock()
			fleet = append(fleet, nd)
			mu.Unlock()
		}(ps)
	}
	wg.Wait()
	sort.Slice(fleet, func(i, j int) bool { return fleet[i].ID < fleet[j].ID })

	merged := map[string]*obs.Histogram{}
	verdicts := map[string]uint64{}
	for _, nd := range fleet {
		for i := range nd.Stages {
			hd := &nd.Stages[i]
			agg, ok := merged[hd.Name]
			if !ok {
				agg = obs.NewHistogram(hd.Bounds)
				merged[hd.Name] = agg
			}
			agg.MergeDump(hd)
		}
		for k, v := range nd.Verdicts {
			verdicts[k] += v
		}
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	stages := make([]obs.HistogramDump, 0, len(names))
	for _, name := range names {
		stages = append(stages, merged[name].DumpAs(name))
	}

	d := DashboardData{Self: n.cfg.SelfID, Fleet: fleet, Stages: stages, Cluster: n.Info()}
	if len(verdicts) > 0 {
		d.Verdicts = verdicts
	}
	return d
}

// handleDashboard serves the embedded single-file web UI.
func (n *Node) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(dashboardHTML)
}

// handleDashboardData serves the fleet-wide aggregation.
func (n *Node) handleDashboardData(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, n.Dashboard(r.Context()))
}

// handleDashboardLocal serves this node's own contribution — the peer
// protocol behind the fleet fan-out.
func (n *Node) handleDashboardLocal(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, n.localDash())
}

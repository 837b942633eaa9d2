package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestDashboardFleetWithPartition drives the acceptance scenario: a 3-node
// fleet, one job completed, one member partitioned away. The dashboard on any
// surviving member must still render — fleet-wide stage aggregates and
// verdict counts present, the dead member marked stale — and the same job
// dispatched through different coordinators must carry byte-identical
// verdicts.
func TestDashboardFleetWithPartition(t *testing.T) {
	nodes := startCluster(t, 3, nil, nil, nil)
	ctx := context.Background()

	// Run one job owned by n1 so its verdict survives the n3 partition.
	spec := specOwnedBy(t, nodes[0].Node, "n1")
	res1, _, err := nodes[0].Node.Dispatch(ctx, spec)
	if err != nil {
		t.Fatalf("dispatch via n1: %v", err)
	}
	if res1.Verdict == nil {
		t.Fatal("dispatched job carries no verdict")
	}

	// The same spec through a different coordinator must produce the same
	// verdict bytes (served from the owner's cache, but identical even if
	// recomputed — the verdict is a pure function of the dump).
	res2, _, err := nodes[1].Node.Dispatch(ctx, spec)
	if err != nil {
		t.Fatalf("dispatch via n2: %v", err)
	}
	if res2.Verdict == nil {
		t.Fatal("second dispatch carries no verdict")
	}
	if !bytes.Equal(res1.Verdict.Canonical(), res2.Verdict.Canonical()) {
		t.Fatalf("verdicts differ across coordinators:\n%s\n%s",
			res1.Verdict.Canonical(), res2.Verdict.Canonical())
	}

	// Partition n3: its listener goes away entirely.
	nodes[2].CloseHTTP()

	for _, tn := range nodes[:2] {
		resp, err := http.Get(tn.URL + "/v1/dashboard/data")
		if err != nil {
			t.Fatalf("GET dashboard data on %s: %v", tn.ID, err)
		}
		var data DashboardData
		err = json.NewDecoder(resp.Body).Decode(&data)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode dashboard data on %s: %v", tn.ID, err)
		}
		if data.Self != tn.ID {
			t.Fatalf("self = %q, want %q", data.Self, tn.ID)
		}
		if len(data.Fleet) != 3 {
			t.Fatalf("fleet has %d members, want 3", len(data.Fleet))
		}
		for i, nd := range data.Fleet {
			if i > 0 && data.Fleet[i-1].ID >= nd.ID {
				t.Fatalf("fleet not sorted by id: %q then %q", data.Fleet[i-1].ID, nd.ID)
			}
			switch nd.ID {
			case "n3":
				if !nd.Stale || nd.Error == "" {
					t.Fatalf("partitioned n3 not marked stale: %+v", nd)
				}
			default:
				if nd.Stale {
					t.Fatalf("live member %s marked stale: %s", nd.ID, nd.Error)
				}
				if nd.Metrics == nil {
					t.Fatalf("live member %s has no metrics", nd.ID)
				}
			}
		}
		if len(data.Stages) == 0 {
			t.Fatalf("no fleet-wide stage aggregates on %s", tn.ID)
		}
		if data.Verdicts[res1.Verdict.Regime] == 0 {
			t.Fatalf("fleet verdict count for %q missing on %s: %v",
				res1.Verdict.Regime, tn.ID, data.Verdicts)
		}
		if data.Cluster.Revision == "" {
			t.Fatalf("cluster info on %s carries no build revision", tn.ID)
		}
	}

	// The embedded UI itself must be served by every member, self-contained.
	resp, err := http.Get(nodes[1].URL + "/v1/dashboard")
	if err != nil {
		t.Fatalf("GET dashboard page: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read dashboard page: %v", err)
	}
	html := string(body)
	if !strings.Contains(html, "nvmserved fleet dashboard") ||
		!strings.Contains(html, "/v1/dashboard/data") {
		t.Fatal("dashboard page missing expected markup")
	}
	if strings.Contains(html, "src=\"http") || strings.Contains(html, "href=\"http") {
		t.Fatal("dashboard page references external assets")
	}
}

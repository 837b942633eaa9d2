package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDashRun runs the dashboard smoke (`make dash-smoke`) in process.
func TestDashRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "dash.json")
	d := &dashRun{region: "64K", steps: 20000, workers: 2, out: out}
	if err := d.run(); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(out); err != nil || len(b) == 0 {
		t.Fatalf("dashboard payload not written: %d bytes, %v", len(b), err)
	}
}

// TestChaosRun runs the seeded chaos soak at `make chaos-smoke`'s sizes.
func TestChaosRun(t *testing.T) {
	if raceDetector {
		// The quarantine check needs n3's corrupt answers to beat the 150 ms
		// hedge budget; slowed by the race detector, a cold first sweep can
		// hedge around n3 on nearly every point, and about one run in ten
		// fails. make chaos-smoke runs the soak without the detector.
		t.Skip("timing-dependent soak; not run under the race detector")
	}
	c := &chaosRun{seed: 1, points: 12, region: "64K", steps: 8000, workers: 2}
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
}

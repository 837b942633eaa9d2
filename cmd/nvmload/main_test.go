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
	c := &chaosRun{seed: 1, points: 12, region: "64K", steps: 8000, workers: 2}
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
}

package cluster

import (
	"fmt"
	"testing"
)

// testKeys returns n synthetic canonical job hashes.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i+1)
	}
	return keys
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Error("empty node id accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}); err == nil {
		t.Error("duplicate node id accepted")
	}
}

// TestRingDeterministic: two rings built from the same membership (in any
// order) agree on every owner — the property that lets each node compute
// routing locally.
func TestRingDeterministic(t *testing.T) {
	r1, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing([]string{"n3", "n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(500) {
		if r1.Owner(k) != r2.Owner(k) {
			t.Fatalf("owner of %s differs: %s vs %s", k[:8], r1.Owner(k), r2.Owner(k))
		}
	}
}

// TestRingBalance: with 64 virtual nodes per member no member's share of the
// key space strays wildly from the mean.
func TestRingBalance(t *testing.T) {
	r, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	keys := testKeys(9000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for _, id := range r.Nodes() {
		share := float64(counts[id]) / float64(len(keys))
		if share < 0.15 || share > 0.55 {
			t.Errorf("node %s owns %.0f%% of keys; split %v", id, share*100, counts)
		}
	}
}

// TestRingConsistency: removing one member only remaps the keys that member
// owned; everything else keeps its owner.
func TestRingConsistency(t *testing.T) {
	big, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewRing([]string{"n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	keys := testKeys(3000)
	for _, k := range keys {
		was := big.Owner(k)
		now := small.Owner(k)
		if was != "n3" && was != now {
			t.Fatalf("key %s moved %s -> %s though its owner was not removed", k[:8], was, now)
		}
		if was == "n3" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("n3 owned nothing; balance is broken")
	}
}

// TestRingOrder: the failover order starts at the owner and visits every
// member exactly once.
func TestRingOrder(t *testing.T) {
	ids := []string{"n1", "n2", "n3", "n4"}
	r, err := NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(200) {
		order := r.Order(k)
		if len(order) != len(ids) {
			t.Fatalf("Order(%s) = %v, want %d distinct members", k[:8], order, len(ids))
		}
		if order[0] != r.Owner(k) {
			t.Fatalf("Order(%s)[0] = %s, owner = %s", k[:8], order[0], r.Owner(k))
		}
		seen := make(map[string]bool)
		for _, id := range order {
			if seen[id] {
				t.Fatalf("Order(%s) repeats %s: %v", k[:8], id, order)
			}
			seen[id] = true
		}
	}
}

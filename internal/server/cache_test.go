package server

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newLRUCache[*Result](2)
	ra, rb, rc := &Result{Hash: "a"}, &Result{Hash: "b"}, &Result{Hash: "c"}
	c.Put("a", ra)
	c.Put("b", rb)
	if _, ok := c.Get("a"); !ok { // promotes a over b
		t.Fatal("a missing")
	}
	c.Put("c", rc) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order wrong")
	}
	if got, ok := c.Get("a"); !ok || got != ra {
		t.Error("a evicted or wrong value")
	}
	if got, ok := c.Get("c"); !ok || got != rc {
		t.Error("c missing")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCacheOverwrite(t *testing.T) {
	c := newLRUCache[*Result](2)
	c.Put("a", &Result{Accesses: 1})
	c.Put("a", &Result{Accesses: 2})
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	got, _ := c.Get("a")
	if got.Accesses != 2 {
		t.Errorf("Get after overwrite = %d, want 2", got.Accesses)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newLRUCache[*Result](0)
	c.Put("a", &Result{})
	if _, ok := c.Get("a"); ok {
		t.Error("zero-capacity cache returned a hit")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

// TestCacheIgnoresEmptyKey: a job without a warmup has an empty WarmHash,
// which must never become a cache entry.
func TestCacheIgnoresEmptyKey(t *testing.T) {
	c := newLRUCache[[]byte](warmCacheCap)
	c.Put("", []byte{1})
	if _, ok := c.Get(""); ok || c.Len() != 0 {
		t.Fatalf("empty key cached: Len = %d", c.Len())
	}
}

// TestCacheEvictionOrder walks a longer access pattern and checks the exact
// eviction sequence: Get and Put both promote, so the victim is always the
// entry untouched the longest.
func TestCacheEvictionOrder(t *testing.T) {
	c := newLRUCache[*Result](3)
	for _, k := range []string{"a", "b", "c"} {
		c.Put(k, &Result{Hash: k})
	}
	// Recency (old -> new): a b c. Touch a, then overwrite b: a and b are
	// now newer than c.
	c.Get("a")
	c.Put("b", &Result{Hash: "b2"})
	c.Put("d", &Result{Hash: "d"}) // evicts c
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived; victim should be the least recently touched")
	}
	// Recency: a b d. Insert two more; a then b must fall, d must stay.
	c.Put("e", &Result{Hash: "e"}) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived past its eviction turn")
	}
	c.Put("f", &Result{Hash: "f"}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past its eviction turn")
	}
	for _, k := range []string{"d", "e", "f"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s missing from final set", k)
		}
	}
}

// TestCacheConcurrent hammers one small cache from many goroutines with
// overlapping keys. Run under -race (make ci does); the assertions check the
// cache never hands back a value for the wrong key and never exceeds its
// capacity.
func TestCacheConcurrent(t *testing.T) {
	const (
		workers = 8
		keys    = 32
		rounds  = 400
	)
	c := newLRUCache[*Result](8)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprint((i*7 + w*13) % keys)
				if i%3 == 0 {
					c.Put(k, &Result{Hash: k})
					continue
				}
				if res, ok := c.Get(k); ok && res.Hash != k {
					t.Errorf("Get(%s) returned result for %s", k, res.Hash)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 8 {
		t.Errorf("Len = %d, exceeds capacity 8", n)
	}
	if cp := c.Cap(); cp != 8 {
		t.Errorf("Cap = %d, want 8", cp)
	}
}

func TestCacheChurn(t *testing.T) {
	c := newLRUCache[*Result](8)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprint(i), &Result{Accesses: i})
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want 8", c.Len())
	}
	for i := 92; i < 100; i++ {
		if got, ok := c.Get(fmt.Sprint(i)); !ok || got.Accesses != i {
			t.Errorf("recent key %d missing", i)
		}
	}
}

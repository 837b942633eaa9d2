package sim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ckpt"
)

// LRU is a fully associative set of at most Cap uint64 keys, each with a
// value V, replaced least recently used first: the policy of the DIMM's RMW
// buffer, the Lazy cache's two levels and the Optane reference model's
// capacity trackers.
//
// Keys live in a fixed slot array threaded onto an intrusive list, least
// recently used at the head, with a KeyIndex from key to slot. Every touch (a Get
// that hits, any Put) stamps the key with a fresh, strictly increasing tick
// and moves it to the tail, so the list is always in stamp order: the head
// is exactly the key a scan for the minimum stamp would pick, found in O(1),
// and an eviction reuses the victim's slot instead of allocating. Peek and
// Contains do not touch.
//
// Owners hold an LRU by value and set it up with Init. Like a FreeList, it
// belongs to one simulation and is not safe for concurrent use.
type LRU[V any] struct {
	index KeyIndex     // key -> slot
	slots []lruSlot[V] // one per resident key, at most cap
	head  int32        // least recently used slot (-1 when empty)
	tail  int32        // most recently used slot (-1 when empty)
	cap   int
	tick  uint64
}

// lruSlot is one resident key. val sits between two words, so a zero-size V
// (an LRU used as a set) adds no padding: such a slot is 24 bytes.
type lruSlot[V any] struct {
	key        uint64
	val        V
	lastUse    uint64
	prev, next int32
}

// LRUEntry is one resident key as Entries reports it and Restore takes it:
// its value and the tick of its last touch.
type LRUEntry[V any] struct {
	Key     uint64
	Val     V
	LastUse uint64
}

// Init empties l and sets its capacity (at least 1), allocating its storage
// up front.
func (l *LRU[V]) Init(capacity int) {
	capacity = max(capacity, 1)
	*l = LRU[V]{
		slots: make([]lruSlot[V], 0, capacity),
		head:  -1,
		tail:  -1,
		cap:   capacity,
	}
	l.index.Init(capacity)
}

// Len returns the resident key count.
func (l *LRU[V]) Len() int { return len(l.slots) }

// Cap returns the capacity.
func (l *LRU[V]) Cap() int { return l.cap }

// Tick returns the stamp of the latest touch (0 before the first).
func (l *LRU[V]) Tick() uint64 { return l.tick }

// Get returns key's value and, on a hit, touches key. A miss changes
// nothing.
func (l *LRU[V]) Get(key uint64) (V, bool) {
	i, ok := l.index.Get(key)
	if !ok {
		var zero V
		return zero, false
	}
	l.touch(i)
	return l.slots[i].val, true
}

// Peek returns a pointer to key's value without touching it, or nil when key
// is absent. The pointer is valid until the next Put, Reset or Restore.
func (l *LRU[V]) Peek(key uint64) *V {
	if i, ok := l.index.Get(key); ok {
		return &l.slots[i].val
	}
	return nil
}

// Contains reports whether key is resident, without touching it.
func (l *LRU[V]) Contains(key uint64) bool {
	_, ok := l.index.Get(key)
	return ok
}

// Put sets key's value and touches key. A new key in a full LRU evicts the
// least recently used one, which Put returns with its value.
func (l *LRU[V]) Put(key uint64, val V) (victim uint64, victimVal V, evicted bool) {
	if i, ok := l.index.Get(key); ok {
		l.slots[i].val = val
		l.touch(i)
		return victim, victimVal, false
	}
	var i int32
	if len(l.slots) < l.cap {
		i = int32(len(l.slots))
		l.slots = append(l.slots, lruSlot[V]{})
	} else {
		i = l.head
		v := &l.slots[i]
		victim, victimVal, evicted = v.key, v.val, true
		l.index.Delete(v.key)
		l.unlink(i)
	}
	l.tick++
	l.slots[i] = lruSlot[V]{key: key, val: val, lastUse: l.tick}
	l.index.Set(key, i)
	l.pushMRU(i)
	return victim, victimVal, evicted
}

// Reset empties l and zeroes its tick, keeping its storage.
func (l *LRU[V]) Reset() {
	l.index.Clear()
	l.slots = l.slots[:0]
	l.head, l.tail = -1, -1
	l.tick = 0
}

// Entries appends the resident keys to dst, most recently used first.
func (l *LRU[V]) Entries(dst []LRUEntry[V]) []LRUEntry[V] {
	dst = slices.Grow(dst, len(l.slots))
	for i := l.tail; i >= 0; i = l.slots[i].prev {
		s := &l.slots[i]
		dst = append(dst, LRUEntry[V]{Key: s.key, Val: s.val, LastUse: s.lastUse})
	}
	return dst
}

// Restore replaces l's contents with entries, given in any order, and sets
// its tick: the inverse of Entries and Tick. It sorts entries by LastUse in
// place. The entries must be as touches leave them: at most Cap, distinct
// keys, and distinct stamps no later than tick. Otherwise Restore returns an
// error wrapping ckpt.ErrCorrupt and leaves l empty.
func (l *LRU[V]) Restore(entries []LRUEntry[V], tick uint64) error {
	l.Reset()
	if len(entries) > l.cap {
		return fmt.Errorf("%w: %d LRU entries, capacity %d", ckpt.ErrCorrupt, len(entries), l.cap)
	}
	slices.SortFunc(entries, func(a, b LRUEntry[V]) int { return cmp.Compare(a.LastUse, b.LastUse) })
	for n, e := range entries {
		if _, dup := l.index.Get(e.Key); dup {
			l.Reset()
			return fmt.Errorf("%w: duplicate LRU key %#x", ckpt.ErrCorrupt, e.Key)
		}
		if e.LastUse > tick || n > 0 && e.LastUse == entries[n-1].LastUse {
			l.Reset()
			return fmt.Errorf("%w: LRU key %#x stamped %d, tick %d", ckpt.ErrCorrupt, e.Key, e.LastUse, tick)
		}
		i := int32(n)
		l.slots = append(l.slots, lruSlot[V]{key: e.Key, val: e.Val, lastUse: e.LastUse})
		l.index.Set(e.Key, i)
		l.pushMRU(i)
	}
	l.tick = tick
	return nil
}

// touch stamps slot i with a fresh tick and makes it most recently used.
func (l *LRU[V]) touch(i int32) {
	l.tick++
	l.slots[i].lastUse = l.tick
	if i != l.tail {
		l.unlink(i)
		l.pushMRU(i)
	}
}

// unlink removes slot i from the list.
func (l *LRU[V]) unlink(i int32) {
	s := &l.slots[i]
	if s.prev >= 0 {
		l.slots[s.prev].next = s.next
	} else {
		l.head = s.next
	}
	if s.next >= 0 {
		l.slots[s.next].prev = s.prev
	} else {
		l.tail = s.prev
	}
}

// pushMRU appends slot i at the most recently used end of the list.
func (l *LRU[V]) pushMRU(i int32) {
	s := &l.slots[i]
	s.prev, s.next = l.tail, -1
	if l.tail >= 0 {
		l.slots[l.tail].next = i
	} else {
		l.head = i
	}
	l.tail = i
}

package sim

// KeyIndex maps at most Cap uint64 keys to int32 values: the index behind
// the bounded key tables on the request path, the LSQ's and the WPQ's line
// slots and an LRU's key slots.
//
// It is one open-addressing table, sized at Init to a power of two at least
// twice the capacity, so no probe run grows long and nothing is allocated
// after Init. A key's home slot is the top bits of its product with a 64-bit
// odd constant (Fibonacci hashing): the keys are 64 B to 4 KB aligned
// addresses, whose low bits carry nothing, and the product's top bits mix
// every bit of the key. A collision probes the next slot, wrapping past the
// end; a delete shifts the rest of its run back (backward-shift deletion),
// so no tombstone ever lengthens a probe.
//
// Owners hold a KeyIndex by value and set it up with Init. Like a FreeList,
// it belongs to one simulation and is not safe for concurrent use.
type KeyIndex struct {
	slots []keySlot
	shift uint // 64 - log2(len(slots))
	n     int
	cap   int
}

// keySlot is one table entry; full marks it occupied, so the zero slot is
// empty and every key value, 0 included, can be stored.
type keySlot struct {
	key  uint64
	val  int32
	full bool
}

// Init empties x and sets its capacity (at least 1), allocating its table.
func (x *KeyIndex) Init(capacity int) {
	capacity = max(capacity, 1)
	size, shift := 2, uint(63)
	for size < 2*capacity {
		size <<= 1
		shift--
	}
	*x = KeyIndex{slots: make([]keySlot, size), shift: shift, cap: capacity}
}

// Len returns the number of keys held.
func (x *KeyIndex) Len() int { return x.n }

// home returns key's first probe slot.
func (x *KeyIndex) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> x.shift)
}

// find returns the slot holding key, or the empty slot ending its probe run
// with ok false.
func (x *KeyIndex) find(key uint64) (i int, ok bool) {
	mask := len(x.slots) - 1
	for i = x.home(key); x.slots[i].full; i = (i + 1) & mask {
		if x.slots[i].key == key {
			return i, true
		}
	}
	return i, false
}

// Get returns key's value.
func (x *KeyIndex) Get(key uint64) (int32, bool) {
	if i, ok := x.find(key); ok {
		return x.slots[i].val, true
	}
	return 0, false
}

// Set maps key to val. Adding a key beyond the capacity panics: the owners
// bound their keys, so that is a bug.
func (x *KeyIndex) Set(key uint64, val int32) {
	i, ok := x.find(key)
	if !ok {
		if x.n == x.cap {
			panic("sim: KeyIndex set beyond its capacity")
		}
		x.n++
		x.slots[i] = keySlot{key: key, full: true}
	}
	x.slots[i].val = val
}

// Delete removes key and returns the value it had. Every later entry of the
// probe run that the freed slot lies between its home and itself moves back
// into it, so every key stays reachable from its home without gaps.
func (x *KeyIndex) Delete(key uint64) (int32, bool) {
	i, ok := x.find(key)
	if !ok {
		return 0, false
	}
	val := x.slots[i].val
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].full; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when i lies cyclically in
		// [home, j): its distance from home is at least the hole's.
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = keySlot{}
	x.n--
	return val, true
}

// Clear removes every key, keeping the table.
func (x *KeyIndex) Clear() {
	if x.n > 0 {
		clear(x.slots)
		x.n = 0
	}
}

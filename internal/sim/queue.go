package sim

// Queue is a bounded FIFO. Its users are the DRAM controller's request
// queue and its FIFO of serviced requests awaiting completion; the iMC's
// WPQ and the on-DIMM LSQ are nvdimm.LSQ, and the RPQ is a counter. A
// capacity of 0 means unbounded.
type Queue[T any] struct {
	items []T
	cap   int
}

// NewQueue returns a queue holding at most capacity items (0 = unbounded).
func NewQueue[T any](capacity int) *Queue[T] {
	return &Queue[T]{cap: capacity}
}

// Cap returns the configured capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.cap }

// Len returns the current occupancy.
func (q *Queue[T]) Len() int { return len(q.items) }

// Empty reports whether the queue holds no items.
func (q *Queue[T]) Empty() bool { return len(q.items) == 0 }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return q.cap > 0 && len(q.items) >= q.cap }

// Push appends item; it reports false (and drops nothing) when full.
func (q *Queue[T]) Push(item T) bool {
	if q.Full() {
		return false
	}
	q.items = append(q.items, item)
	return true
}

// Pop removes and returns the oldest item; ok is false when empty.
func (q *Queue[T]) Pop() (item T, ok bool) {
	if len(q.items) == 0 {
		return item, false
	}
	item = q.items[0]
	// Shift rather than re-slice so the backing array does not grow without
	// bound across long simulations.
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return item, true
}

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (item T, ok bool) {
	if len(q.items) == 0 {
		return item, false
	}
	return q.items[0], true
}

// At returns the i-th oldest item (0 = head). It panics on out-of-range, like
// a slice index.
func (q *Queue[T]) At(i int) T { return q.items[i] }

// RemoveAt deletes and returns the i-th oldest item, preserving order.
func (q *Queue[T]) RemoveAt(i int) T {
	item := q.items[i]
	copy(q.items[i:], q.items[i+1:])
	q.items = q.items[:len(q.items)-1]
	return item
}

// Scan calls fn for each queued item from oldest to newest until fn returns
// false.
func (q *Queue[T]) Scan(fn func(i int, item T) bool) {
	for i, it := range q.items {
		if !fn(i, it) {
			return
		}
	}
}

package sim

// FreeList recycles *T records: the per-access state that completion chains
// carry through (func(any), any) continuations instead of closures. Get
// returns a zeroed record, reusing a released one when it can; Put zeroes the
// record (dropping its references) and keeps it for the next Get. Once a run
// has warmed up to its peak number of in-flight records, Get never
// allocates.
//
// A FreeList is not safe for concurrent use. Each one belongs to a single
// simulation and is touched only by its engine's events and the driver
// context that runs that engine.
type FreeList[T any] struct {
	free []*T
}

// Get returns a zeroed record.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	return new(T)
}

// Put zeroes x and keeps it for reuse. x must not be used afterwards.
func (f *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	f.free = append(f.free, x)
}

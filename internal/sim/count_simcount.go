//go:build simcount

package sim

import (
	"cmp"
	"reflect"
	"runtime"
	"slices"
	"strings"
)

// engineCounts counts, per engine, the events fired by each handler, the
// ticks passed by each poll and the slots passed by each lane, keyed by the
// handler's entry PC (for a lane, the callback its slots stand for). A
// closure scheduled with Schedule or After counts under its own function,
// not callFunc's. It exists only under the simcount build tag; `make
// event-counts` prints the tables of a store-write and a chase job.
type engineCounts struct {
	fired  map[uintptr]uint64
	passed map[uintptr]uint64
	slots  map[uintptr]uint64
}

var callFuncPC = reflect.ValueOf(callFunc).Pointer()

func (c *engineCounts) fire(fn func(any), arg any) {
	pc := reflect.ValueOf(fn).Pointer()
	if pc == callFuncPC {
		pc = reflect.ValueOf(arg).Pointer()
	}
	if c.fired == nil {
		c.fired = map[uintptr]uint64{}
	}
	c.fired[pc]++
}

func (c *engineCounts) pass(p *Poll) {
	if c.passed == nil {
		c.passed = map[uintptr]uint64{}
	}
	c.passed[reflect.ValueOf(p.fn).Pointer()]++
}

func (c *engineCounts) passSlot(l *Lane) {
	if c.slots == nil {
		c.slots = map[uintptr]uint64{}
	}
	c.slots[reflect.ValueOf(l.name.fn).Pointer()]++
}

// laneName is the callback a lane's slots stand for, which names the lane
// in the passed-slot table.
type laneName struct{ fn func(any) }

func (n *laneName) set(fn func(any)) { n.fn = fn }

// HandlerCount is one row of an EventCounts table: a handler's function
// name, without the module's "repro/internal/" prefix, and its count.
type HandlerCount struct {
	Name string
	N    uint64
}

// EventCounts returns the events e fired per handler, the ticks it passed
// per poll and the slots it passed per lane, each sorted by count, largest
// first. The fired counts sum to Fired() for an engine that was never
// restored from a snapshot.
func (e *Engine) EventCounts() (fired, passed, slots []HandlerCount) {
	return countTable(e.counts.fired), countTable(e.counts.passed), countTable(e.counts.slots)
}

func countTable(m map[uintptr]uint64) []HandlerCount {
	rows := make([]HandlerCount, 0, len(m))
	for pc, n := range m {
		name := "?"
		if f := runtime.FuncForPC(pc); f != nil {
			name = strings.TrimPrefix(f.Name(), "repro/internal/")
		}
		rows = append(rows, HandlerCount{name, n})
	}
	slices.SortFunc(rows, func(a, b HandlerCount) int {
		if c := cmp.Compare(b.N, a.N); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return rows
}

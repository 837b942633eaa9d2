//go:build simcount

package sim

import (
	"cmp"
	"reflect"
	"runtime"
	"slices"
	"strings"
)

// engineCounts counts, per engine, the events fired by each handler and the
// ticks passed by each poll, keyed by the handler's entry PC. A closure
// scheduled with Schedule or After counts under its own function, not
// callFunc's. It exists only under the simcount build tag; `make
// event-counts` prints the tables of a store-write and a chase job.
type engineCounts struct {
	fired  map[uintptr]uint64
	passed map[uintptr]uint64
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

// HandlerCount is one row of an EventCounts table: a handler's function
// name, without the module's "repro/internal/" prefix, and its count.
type HandlerCount struct {
	Name string
	N    uint64
}

// EventCounts returns the events e fired per handler and the ticks it
// passed per poll, each sorted by count, largest first. The fired counts
// sum to Fired() for an engine that was never restored from a snapshot.
func (e *Engine) EventCounts() (fired, passed []HandlerCount) {
	return countTable(e.counts.fired), countTable(e.counts.passed)
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

//go:build simcount

package vans

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestEventCounts prints, for the job shapes perfbench's store-write and
// chase-read workloads time, the events the engine fired per handler, the
// ticks it passed per parked poll and the slots it passed per lane:
//
//   - store-write: 4 MB of store-nt stores with wear threshold 50, a barrier
//     every 4,096 stores and config seed 1, through a window of 10;
//   - chase: a dependent 64 MB chase of 20,000 steps, workload seed 1.
//
// It builds only under the simcount tag, which compiles the counters into
// the engine; `make event-counts` runs it. Each table's fired column must
// sum to the engine's Fired(). A lane slot stands for an event that fired
// and did nothing before lanes existed, so fired events plus passed slots
// must equal the events each job fired then.
func TestEventCounts(t *testing.T) {
	jobs := []struct {
		name string
		run  func() (*System, int)
		// events is what the job fired when every slot was an event.
		events uint64
	}{
		{"store-write (4 MB store-nt, wear 50, a barrier every 4,096 stores, config seed 1)", func() (*System, int) {
			cfg := DefaultConfig()
			cfg.NV.WearThreshold = 50
			s := New(cfg)
			d := mem.NewDriver(s)
			d.SetCkpt(&mem.CkptPolicy{Every: 4096})
			accs := workload.SeqAccesses(4<<20, mem.OpWriteNT)
			d.RunWindow(accs, 10)
			d.Fence()
			return s, len(accs)
		}, 353992},
		{"chase (64 MB region, 20,000 steps, seed 1)", func() (*System, int) {
			s := New(DefaultConfig())
			d := mem.NewDriver(s)
			accs := workload.ChaseAccesses(64<<20, 20000, 1)
			d.RunWindow(accs, 1)
			d.Fence()
			return s, len(accs)
		}, 678991},
	}
	for _, job := range jobs {
		s, n := job.run()
		fired, passed, slots := s.Engine().EventCounts()
		fmt.Printf("%s: %d accesses\n", job.name, n)
		if total := printCounts("fired events", fired, n); total != s.Engine().Fired() {
			t.Errorf("%s: the handler counts sum to %d, Fired() is %d", job.name, total, s.Engine().Fired())
		}
		printCounts("passed ticks", passed, n)
		if total := s.Engine().Fired() + printCounts("passed slots", slots, n); total != job.events {
			t.Errorf("%s: %d fired events and passed slots, want %d", job.name, total, job.events)
		}
		fmt.Println()
	}
}

// printCounts prints one table with a count per access for each row and
// returns its total.
func printCounts(title string, rows []sim.HandlerCount, accesses int) uint64 {
	var total uint64
	fmt.Printf("  %-44s %12s %10s\n", title, "count", "per access")
	for _, r := range rows {
		fmt.Printf("  %-44s %12d %10.3f\n", r.Name, r.N, float64(r.N)/float64(accesses))
		total += r.N
	}
	fmt.Printf("  %-44s %12d %10.3f\n", "total", total, float64(total)/float64(accesses))
	return total
}

package vans

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

// TestQueuesEmptyAtRunEnd drives three shapes until the engine runs dry: a
// dependent 4 MB chase (AIT line misses, their background fills, then
// hits), a sequential non-temporal store stream with wear migrations, and a
// Memory-mode chase through the near cache. At the end nothing may be left
// anywhere: no pending event or parked poll, an idle iMC (its WPQ, RPQ and
// every DIMM's LSQ), every on-DIMM DRAM controller drained (queue,
// completion FIFO and lane of passive slots), the near cache's controller
// too, and every request completed exactly once. A completion FIFO that
// drops or repeats an entry fails it.
func TestQueuesEmptyAtRunEnd(t *testing.T) {
	cases := []struct {
		name   string
		mode   Mode
		wear   uint64
		accs   []mem.Access
		window int
	}{
		{"chase", AppDirect, 0, workload.ChaseAccesses(4<<20, 3000, 3), 1},
		{"seq-store-nt", AppDirect, 50, workload.SeqAccesses(512<<10, mem.OpWriteNT), 10},
		{"memory-mode", MemoryMode, 0, workload.ChaseAccesses(1<<20, 3000, 3), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallNV(DefaultConfig())
			cfg.Mode = tc.mode
			cfg.DRAMCacheBytes = 256 << 10
			cfg.NV.WearThreshold = tc.wear
			s := New(cfg)
			completed := runLedger(t, s, tc.accs, tc.window)
			eng := s.Engine()
			if n := eng.Pending(); n != 0 {
				t.Fatalf("%d events pending after the engine ran dry", n)
			}
			if s.IMC().Busy() {
				t.Fatal("the iMC is busy after the engine ran dry")
			}
			for i, d := range s.DIMMs() {
				if !d.DRAM().Drained() {
					t.Fatalf("DIMM %d's on-DIMM DRAM controller is not drained", i)
				}
				if n := d.DRAM().PendingSlots(); n != 0 {
					t.Fatalf("DIMM %d's on-DIMM DRAM controller has %d lane slots unpassed", i, n)
				}
			}
			if s.cache != nil && (!s.cache.dramC.Drained() || s.cache.dramC.PendingSlots() != 0) {
				t.Fatal("the near cache's DRAM controller is not drained")
			}
			for id, n := range completed {
				if n != 1 {
					t.Fatalf("request %d completed %d times, want once", id, n)
				}
			}
			if tc.wear != 0 && s.Migrations() == 0 {
				t.Fatal("the store stream migrated no wear block")
			}
		})
	}
}

// runLedger submits accs with at most window requests outstanding, stepping
// the engine whenever the window is full or the system refuses, then runs
// the engine dry. It returns how many times each request completed. Every
// request is a fresh record, so a completion that fires twice lands on its
// own request's count.
func runLedger(t *testing.T, s *System, accs []mem.Access, window int) []int {
	t.Helper()
	eng := s.Engine()
	completed := make([]int, len(accs))
	inflight := 0
	onDone := func(r *mem.Request) {
		completed[r.ID]++
		inflight--
	}
	for i := 0; i < len(accs); {
		if inflight < window {
			a := accs[i]
			r := &mem.Request{ID: uint64(i), Op: a.Op, Addr: a.Addr, Size: a.Size, OnDone: onDone}
			if s.Submit(r) {
				inflight++
				i++
				continue
			}
		}
		if !eng.Step() {
			t.Fatalf("the engine ran dry with %d requests outstanding at access %d", inflight, i)
		}
	}
	eng.Run()
	return completed
}

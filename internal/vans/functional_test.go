package vans

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestRandomizedFunctionalConsistency drives a random mix of writes, fences,
// and reads through the full stack (WPQ combining -> LSQ -> RMW -> AIT ->
// media, with wear-leveling migrations permuting the translation) and
// checks that the functional contents always reflect the last write to each
// location. This is the end-to-end data-integrity property of the whole
// pipeline.
func TestRandomizedFunctionalConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultConfig()
		cfg.Functional = true
		cfg.NV.Media.Capacity = 16 << 20
		cfg.NV.WearThreshold = 30 // migrations happen mid-run
		cfg.NV.MigrationNs = 5000
		cfg.Seed = seed
		s := New(cfg)
		d := mem.NewDriver(s)
		rng := sim.NewRNG(seed)

		// Shadow model: last write per address.
		shadow := map[uint64]byte{}
		addrs := make([]uint64, 24)
		for i := range addrs {
			addrs[i] = rng.Uint64n(4<<20) &^ 63
		}

		for step := 0; step < 300; step++ {
			a := addrs[rng.Intn(len(addrs))]
			switch rng.Intn(4) {
			case 0, 1: // write
				v := byte(rng.Intn(256))
				req := &mem.Request{Op: mem.OpWriteNT, Addr: a, Size: 64,
					Data: []byte{v}}
				done := false
				req.OnDone = func(*mem.Request) { done = true }
				for !s.Submit(req) {
					s.Engine().Step()
				}
				s.Engine().RunWhile(func() bool { return !done })
				shadow[a] = v
			case 2: // fence
				d.Fence()
			case 3: // check a previously written address
				if len(shadow) == 0 {
					continue
				}
				for addr, want := range shadow {
					got := s.ReadData(addr, 1)
					if !bytes.Equal(got, []byte{want}) {
						t.Logf("seed %d: addr %#x = %v, want %v", seed, addr, got, want)
						return false
					}
					break
				}
			}
		}
		// Final drain, then verify everything.
		d.Fence()
		for addr, want := range shadow {
			if got := s.ReadData(addr, 1); !bytes.Equal(got, []byte{want}) {
				t.Logf("seed %d: final addr %#x = %v, want %v", seed, addr, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedFunctionalConsistency repeats the integrity property with
// 6 interleaved DIMMs, exercising the router and per-DIMM translations.
func TestInterleavedFunctionalConsistency(t *testing.T) {
	cfg := Interleaved6()
	cfg.Functional = true
	cfg.NV.Media.Capacity = 16 << 20
	cfg.NV.WearThreshold = 25
	cfg.NV.MigrationNs = 5000
	s := New(cfg)
	d := mem.NewDriver(s)
	rng := sim.NewRNG(99)

	shadow := map[uint64]byte{}
	for step := 0; step < 400; step++ {
		// Cover several interleave spans, including span boundaries.
		a := rng.Uint64n(128<<10) &^ 63
		v := byte(step)
		req := &mem.Request{Op: mem.OpWriteNT, Addr: a, Size: 64, Data: []byte{v}}
		done := false
		req.OnDone = func(*mem.Request) { done = true }
		for !s.Submit(req) {
			s.Engine().Step()
		}
		s.Engine().RunWhile(func() bool { return !done })
		shadow[a] = v
		if step%50 == 49 {
			d.Fence()
		}
	}
	d.Fence()
	if s.Migrations() == 0 {
		t.Log("warning: no migrations occurred; wear path untested this run")
	}
	for addr, want := range shadow {
		if got := s.ReadData(addr, 1); !bytes.Equal(got, []byte{want}) {
			t.Fatalf("addr %#x = %v, want %v", addr, got, want)
		}
	}
}

// TestDrainedQuiescence: after every request completes and a fence returns,
// the engine must quiesce — no self-sustaining event loops.
func TestDrainedQuiescence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NV.Media.Capacity = 16 << 20
	s := New(cfg)
	d := mem.NewDriver(s)
	var accs []mem.Access
	rng := sim.NewRNG(3)
	for i := 0; i < 200; i++ {
		op := mem.OpRead
		if rng.Intn(2) == 0 {
			op = mem.OpWriteNT
		}
		accs = append(accs, mem.Access{Op: op, Addr: rng.Uint64n(8<<20) &^ 63, Size: 64})
	}
	d.RunWindow(accs, 8)
	d.Fence()
	// Run everything left (background fills); the engine must terminate.
	s.Engine().Run()
	if !s.Drained() {
		t.Fatal("system not drained after full engine run")
	}
	if s.Engine().Pending() != 0 {
		t.Fatalf("%d events still pending after Run", s.Engine().Pending())
	}
}

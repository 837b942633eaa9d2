package vans

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mem"
)

// ckptAccs builds a deterministic mixed stream with reuse (exercises LSQ,
// RMW, AIT, wear, and in Memory mode the near cache).
func ckptAccs(n int) []mem.Access {
	accs := make([]mem.Access, 0, n)
	for i := 0; i < n; i++ {
		addr := uint64(i%709) * 64
		op := mem.OpRead
		if i%2 == 0 {
			op = mem.OpWrite
		}
		accs = append(accs, mem.Access{Op: op, Addr: addr, Size: 64})
	}
	return accs
}

// runWithBarriers executes accs under a barrier policy, capturing the
// (driver+system) snapshot at captureIdx, and returns (elapsed, snapshot,
// final engine cycle).
func runWithBarriers(t *testing.T, cfg Config, accs []mem.Access, every, captureIdx int) (uint64, []byte, uint64) {
	t.Helper()
	sys := New(cfg)
	d := mem.NewDriver(sys)
	var snap []byte
	d.SetCkpt(&mem.CkptPolicy{Every: every, Sink: func(idx int) error {
		if idx != captureIdx {
			return nil
		}
		var enc ckpt.Enc
		if err := d.SaveState(&enc); err != nil {
			return err
		}
		if err := sys.SaveState(&enc); err != nil {
			return err
		}
		snap = ckpt.Seal(enc.Bytes())
		return nil
	}})
	elapsed, ok := d.RunWindowChecked(accs, 8, nil)
	if !ok {
		t.Fatalf("run aborted: %v", d.CkptErr())
	}
	d.Fence()
	return uint64(elapsed), snap, uint64(sys.Engine().Now())
}

func testRestoreIdentity(t *testing.T, cfg Config) {
	accs := ckptAccs(3000)
	const every, cut = 500, 1500

	wantElapsed, snap, wantNow := runWithBarriers(t, cfg, accs, every, cut)
	if snap == nil {
		t.Fatal("no snapshot captured at the cut barrier")
	}

	payload, err := ckpt.Open(snap)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sys := New(cfg)
	d := mem.NewDriver(sys)
	dec := ckpt.NewDec(payload)
	if err := d.LoadState(dec); err != nil {
		t.Fatalf("driver LoadState: %v", err)
	}
	if err := sys.LoadState(dec); err != nil {
		t.Fatalf("system LoadState: %v", err)
	}
	if err := dec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d.SetCkpt(&mem.CkptPolicy{Every: every, StartIndex: cut})
	elapsed, ok := d.RunWindowChecked(accs, 8, nil)
	if !ok {
		t.Fatalf("resumed run aborted: %v", d.CkptErr())
	}
	d.Fence()

	if uint64(elapsed) != wantElapsed {
		t.Fatalf("resumed elapsed %d cycles, straight %d", elapsed, wantElapsed)
	}
	if got := uint64(sys.Engine().Now()); got != wantNow {
		t.Fatalf("resumed run ended at cycle %d, straight at %d", got, wantNow)
	}
}

// TestRestoreIdentityAppDirect: run(restore(checkpoint(S))) matches an
// uninterrupted run of the same plan exactly, App Direct mode.
func TestRestoreIdentityAppDirect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NV.Media.Capacity = 16 << 20
	testRestoreIdentity(t, cfg)
}

// TestRestoreIdentityInterleaved: same, across a 2-DIMM interleaved system.
func TestRestoreIdentityInterleaved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DIMMs = 2
	cfg.Interleaved = true
	cfg.NV.Media.Capacity = 16 << 20
	testRestoreIdentity(t, cfg)
}

// TestRestoreIdentityMemoryMode: same, with the DRAM near cache in the loop.
func TestRestoreIdentityMemoryMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = MemoryMode
	cfg.NV.Media.Capacity = 16 << 20
	cfg.DRAMCacheBytes = 1 << 20
	testRestoreIdentity(t, cfg)
}

// TestCaptureRejectsBusy: saving a non-quiescent system is an error, not a
// corrupt snapshot.
func TestCaptureRejectsBusy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NV.Media.Capacity = 16 << 20
	sys := New(cfg)
	r := &mem.Request{Op: mem.OpWrite, Addr: 0, Size: 64, OnDone: func(*mem.Request) {}}
	if !sys.Submit(r) {
		t.Fatal("submit rejected")
	}
	var enc ckpt.Enc
	if err := sys.SaveState(&enc); err == nil {
		t.Fatal("SaveState succeeded with in-flight work")
	}
}

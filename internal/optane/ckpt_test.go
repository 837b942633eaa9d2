package optane

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mem"
)

// drive issues a deterministic mixed read/write stream and returns per-access
// completion cycles.
func drive(s *System, from, to int) []uint64 {
	var lats []uint64
	for i := from; i < to; i++ {
		addr := uint64(i%977) * 64
		op := mem.OpRead
		if i%3 == 0 {
			op = mem.OpWrite
		}
		if i%251 == 250 {
			op = mem.OpFence
		}
		r := &mem.Request{Addr: addr, Size: 64, Op: op}
		r.OnDone = func(rq *mem.Request) { lats = append(lats, uint64(rq.Done)) }
		if !s.Submit(r) {
			panic("submit rejected")
		}
		s.eng.Run()
	}
	return lats
}

// TestSystemCheckpointRoundTrip: run half the stream, snapshot at idle,
// restore into a fresh system, and require the remaining completions to be
// byte-identical to an uninterrupted run. The mid-stream snapshot itself is
// pinned by its hash, so a change to the LRU trackers' recency order or
// encoding cannot hide behind a round trip that merely agrees with itself.
func TestSystemCheckpointRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DIMMs = 2
	cfg.Interleaved = true

	straight := New(cfg)
	want := drive(straight, 0, 4000)

	s1 := New(cfg)
	prefix := drive(s1, 0, 2000)
	var enc ckpt.Enc
	if err := s1.SaveState(&enc); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	if runtime.GOARCH == "amd64" {
		sum := sha256.Sum256(enc.Bytes())
		if got := hex.EncodeToString(sum[:]); got != roundTripSnapshotSHA256 {
			t.Errorf("mid-stream snapshot (%d bytes) sha256 = %s, want %s",
				len(enc.Bytes()), got, roundTripSnapshotSHA256)
		}
	}

	s2 := New(cfg)
	if err := s2.LoadState(ckpt.NewDec(enc.Bytes())); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	got := append(prefix, drive(s2, 2000, 4000)...)

	if len(got) != len(want) {
		t.Fatalf("resumed run completed %d accesses, straight %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d completed at cycle %d resumed, %d straight", i, got[i], want[i])
		}
	}
	if s2.eng.Now() != straight.eng.Now() || s2.Tails != straight.Tails {
		t.Fatalf("final state diverged: now %d vs %d, tails %d vs %d",
			s2.eng.Now(), straight.eng.Now(), s2.Tails, straight.Tails)
	}
}

// roundTripSnapshotSHA256 is the SHA-256 of the 2,069-byte snapshot that
// TestSystemCheckpointRoundTrip takes after 2,000 accesses over two
// interleaved DIMMs (recorded on linux/amd64, like the golden files).
const roundTripSnapshotSHA256 = "119e196629bbd0c8c8247ec64604e95a6150a684752dc72e32cb1bf8ba0313a5"

// TestSystemCheckpointGeometryMismatch: a snapshot from a different DIMM
// count is a typed corrupt error, not a panic.
func TestSystemCheckpointGeometryMismatch(t *testing.T) {
	cfg := DefaultConfig()
	s1 := New(cfg)
	drive(s1, 0, 100)
	var enc ckpt.Enc
	if err := s1.SaveState(&enc); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	cfg2 := cfg
	cfg2.DIMMs = 2
	s2 := New(cfg2)
	if err := s2.LoadState(ckpt.NewDec(enc.Bytes())); err == nil {
		t.Fatal("LoadState accepted a snapshot with mismatched DIMM count")
	}
}

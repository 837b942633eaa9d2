package media

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/sim"
)

func newTest(cfg Config) (*sim.Engine, *XPoint) {
	eng := sim.NewEngine()
	return eng, New(eng, cfg)
}

func TestDefaultsApplied(t *testing.T) {
	_, x := newTest(Config{})
	c := x.Config()
	if c.BlockSize != 256 || c.Partitions != 16 || c.WearBlock != 64<<10 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestAccessLatencyAsymmetry(t *testing.T) {
	eng, x := newTest(Config{})
	rEnd := x.Access(0, false, nil, nil)
	_ = eng
	// Same partition: write must start after the read finishes.
	wEnd := x.Access(0, true, nil, nil)
	if wEnd <= rEnd {
		t.Fatal("same-partition accesses not serialized")
	}
	if wEnd-rEnd <= rEnd {
		t.Fatalf("write service (%d) not longer than read service (%d)", wEnd-rEnd, rEnd)
	}
}

func TestPartitionParallelism(t *testing.T) {
	_, x := newTest(Config{})
	blk := x.Config().BlockSize
	// Accesses to different partitions all start at cycle 0.
	end0 := x.Access(0, false, nil, nil)
	end1 := x.Access(blk, false, nil, nil)
	if end0 != end1 {
		t.Fatalf("different partitions serialized: %d vs %d", end0, end1)
	}
	// 17th access wraps to partition 0 and queues behind the first.
	end16 := x.Access(blk*16, false, nil, nil)
	if end16 <= end0 {
		t.Fatal("wrapped partition access did not queue")
	}
}

func TestDoneCallbackFiresAtCompletion(t *testing.T) {
	eng, x := newTest(Config{})
	var at sim.Cycle
	end := x.Access(0, true, nil, nil)
	_ = end
	want := x.Access(256, false, func(any) { at = eng.Now() }, nil)
	eng.Run()
	if at != want {
		t.Fatalf("done fired at %d, want %d", at, want)
	}
}

func TestWearCounting(t *testing.T) {
	_, x := newTest(Config{})
	for i := 0; i < 10; i++ {
		x.Access(0, true, nil, nil)
	}
	x.Access(0, false, nil, nil) // reads do not wear
	if got := x.WearCount(0); got != 10 {
		t.Fatalf("WearCount = %d, want 10", got)
	}
	// Same 64KB wear block, different media block.
	x.Access(1024, true, nil, nil)
	if got := x.WearCount(0); got != 11 {
		t.Fatalf("WearCount same wear block = %d, want 11", got)
	}
	// Different wear block.
	if got := x.WearCount(64 << 10); got != 0 {
		t.Fatalf("WearCount other block = %d, want 0", got)
	}
	x.ResetWear(512)
	if got := x.WearCount(0); got != 0 {
		t.Fatalf("WearCount after reset = %d, want 0", got)
	}
}

func TestTotalWear(t *testing.T) {
	_, x := newTest(Config{})
	x.Access(0, true, nil, nil)
	x.Access(64<<10, true, nil, nil)
	x.Access(128<<10, true, nil, nil)
	if got := x.TotalWear(); got != 3 {
		t.Fatalf("TotalWear = %d, want 3", got)
	}
}

func TestStatsCounts(t *testing.T) {
	_, x := newTest(Config{})
	x.Access(0, false, nil, nil)
	x.Access(256, true, nil, nil)
	st := x.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesRead != 256 || st.BytesWrite != 256 {
		t.Fatalf("byte stats = %+v", st)
	}
}

func TestFunctionalDataRoundTrip(t *testing.T) {
	_, x := newTest(Config{Functional: true})
	payload := []byte("hello, xpoint")
	x.WriteData(1000, payload) // straddles no block boundary
	got := x.ReadData(1000, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatalf("ReadData = %q, want %q", got, payload)
	}
}

func TestFunctionalDataCrossesBlocks(t *testing.T) {
	_, x := newTest(Config{Functional: true})
	payload := make([]byte, 600) // spans three 256B blocks
	for i := range payload {
		payload[i] = byte(i)
	}
	x.WriteData(200, payload)
	got := x.ReadData(200, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-block round trip failed")
	}
	// Unwritten area reads as zero.
	if z := x.ReadData(1<<20, 4); !bytes.Equal(z, []byte{0, 0, 0, 0}) {
		t.Fatalf("unwritten read = %v", z)
	}
}

func TestFunctionalDisabledNoops(t *testing.T) {
	_, x := newTest(Config{})
	x.WriteData(0, []byte{1, 2, 3})
	if got := x.ReadData(0, 3); got != nil {
		t.Fatalf("non-functional ReadData = %v, want nil", got)
	}
}

func TestCopyBlock(t *testing.T) {
	_, x := newTest(Config{Functional: true})
	x.WriteData(0, []byte{9, 8, 7})
	x.CopyBlock(0, 4096)
	if got := x.ReadData(4096, 3); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("CopyBlock data = %v", got)
	}
	// Copying an unwritten block clears the destination.
	x.CopyBlock(8192, 4096)
	if got := x.ReadData(4096, 3); !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Fatalf("CopyBlock from empty = %v", got)
	}
}

// Property: functional store round-trips arbitrary writes at arbitrary
// offsets (last-write-wins within a single sequential pass).
func TestFunctionalRoundTripProperty(t *testing.T) {
	f := func(addrRaw uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 2048 {
			data = data[:2048]
		}
		_, x := newTest(Config{Functional: true})
		addr := uint64(addrRaw)
		x.WriteData(addr, data)
		return bytes.Equal(x.ReadData(addr, len(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-partition completion times never decrease (serialization
// invariant).
func TestPartitionSerializationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		eng, x := newTest(Config{})
		rng := sim.NewRNG(seed)
		lastEnd := make(map[int]sim.Cycle)
		for i := 0; i < 200; i++ {
			addr := rng.Uint64n(1 << 22)
			p := x.partition(addr % x.cfg.Capacity)
			end := x.Access(addr, rng.Intn(2) == 0, nil, nil)
			if prev, ok := lastEnd[p]; ok && end <= prev {
				return false
			}
			lastEnd[p] = end
			if rng.Intn(4) == 0 {
				eng.RunUntil(eng.Now() + 100)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAddrHelpersMatchDivision checks the shift-and-mask partition and
// wear-block maps, and the fold onto a media of any size, against the
// division formulas they replaced, over random 64-bit addresses and random
// addresses on the media, for the paper's media and the other-NVRAM
// flavors' blocks, at a capacity that is a power of two and one that is
// not. The service times the histograms record are the division's too.
func TestAddrHelpersMatchDivision(t *testing.T) {
	for _, block := range []uint64{256, 512, 1024} {
		for _, capacity := range []uint64{64 << 20, 64<<20 - 5*4096 + 3} {
			_, x := newTest(Config{BlockSize: block, Capacity: capacity})
			c := x.Config()
			rng := sim.NewRNG(9)
			for i := 0; i < 20000; i++ {
				addr := rng.Uint64()
				if i%2 == 1 {
					addr %= capacity
				}
				a := x.wrap(addr)
				if a != addr%capacity {
					t.Fatalf("capacity %d: wrap(%#x) = %#x, division %#x", capacity, addr, a, addr%capacity)
				}
				if got, want := x.partition(a), int(a/c.BlockSize%uint64(c.Partitions)); got != want {
					t.Fatalf("block %d: partition(%#x) = %d, division %d", block, a, got, want)
				}
				if got, want := x.wearIdx(a), a/c.WearBlock; got != want {
					t.Fatalf("wearIdx(%#x) = %d, division %d", a, got, want)
				}
			}
			if x.readNs != uint64(float64(x.readCycles)/dram.CyclesPerNano) ||
				x.writeNs != uint64(float64(x.writeCycles)/dram.CyclesPerNano) {
				t.Fatalf("service times %d/%d ns, division %d/%d", x.readNs, x.writeNs,
					uint64(float64(x.readCycles)/dram.CyclesPerNano), uint64(float64(x.writeCycles)/dram.CyclesPerNano))
			}
		}
	}
}

// TestNonPowerOfTwoGeometryPanics: the partition and wear-block maps shift
// and mask, so New refuses a block size, partition count or wear block that
// is not a power of two. Capacity may be any size.
func TestNonPowerOfTwoGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{{BlockSize: 384}, {Partitions: 6}, {WearBlock: 48 << 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted %+v", cfg)
				}
			}()
			newTest(cfg)
		}()
	}
	newTest(Config{Capacity: 3 << 20})
}

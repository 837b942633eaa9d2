package baseline

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func chaseNs(t *testing.T, s mem.System, region uint64) float64 {
	t.Helper()
	d := mem.NewDriver(s)
	blocks := int(region / 64)
	perm := sim.NewRNG(5).PermCycle(blocks)
	var accs []mem.Access
	at := 0
	for i := 0; i < 2*blocks; i++ {
		accs = append(accs, mem.Access{Op: mem.OpRead, Addr: uint64(at) * 64, Size: 64})
		at = int(perm[at])
	}
	lats := d.RunChain(accs)
	half := len(lats) / 2
	var sum float64
	for _, l := range lats[half:] {
		sum += mem.ToNs(s, l)
	}
	return sum / float64(len(lats)-half)
}

func TestPMEPFlatAcrossRegions(t *testing.T) {
	// PMEP's defining failure: latency does not depend on the region size.
	small := chaseNs(t, NewPMEP(DefaultPMEP(), 1), 4<<10)
	large := chaseNs(t, NewPMEP(DefaultPMEP(), 1), 1<<20)
	ratio := large / small
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("PMEP latency not flat: small=%.0f large=%.0f", small, large)
	}
}

func TestPMEPBandwidthInversion(t *testing.T) {
	// PMEP: load ~ store >> store-nt (the inversion of Figure 1a).
	bw := func(op mem.Op) float64 {
		s := NewPMEP(DefaultPMEP(), 1)
		d := mem.NewDriver(s)
		n := 4096
		accs := make([]mem.Access, n)
		for i := range accs {
			accs[i] = mem.Access{Op: op, Addr: uint64(i) * 64, Size: 64}
		}
		elapsed := d.RunWindow(accs, 10)
		return mem.BandwidthGBs(s, uint64(n)*64, elapsed)
	}
	load, st, nt := bw(mem.OpRead), bw(mem.OpWrite), bw(mem.OpWriteNT)
	if !(load > nt && st > nt) {
		t.Fatalf("PMEP ordering wrong: load=%.1f st=%.1f nt=%.1f", load, st, nt)
	}
}

func TestPMEPFence(t *testing.T) {
	s := NewPMEP(DefaultPMEP(), 1)
	d := mem.NewDriver(s)
	d.RunChain([]mem.Access{{Op: mem.OpWriteNT, Addr: 0, Size: 64}})
	if lat := d.Fence(); lat == 0 {
		t.Fatal("fence latency zero")
	}
	if !s.Drained() {
		t.Fatal("not drained")
	}
}

func TestSlowDRAMKinds(t *testing.T) {
	for _, k := range []SimKind{DRAMSim2DDR3, RamulatorDDR4, RamulatorPCM} {
		lat := chaseNs(t, NewSlowDRAM(k), 64<<10)
		if lat <= 0 {
			t.Fatalf("%v: zero latency", k)
		}
	}
	if SimKind(99).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
}

func TestRamulatorPCMSlowerThanDDR4(t *testing.T) {
	pcm := chaseNs(t, NewSlowDRAM(RamulatorPCM), 64<<10)
	ddr4 := chaseNs(t, NewSlowDRAM(RamulatorDDR4), 64<<10)
	if pcm <= ddr4*1.5 {
		t.Fatalf("PCM (%.0f) not clearly slower than DDR4 (%.0f)", pcm, ddr4)
	}
}

func TestRamulatorPCMFlatAcrossRegions(t *testing.T) {
	// The defining mismatch of Figure 3b: the simulated curve is flat while
	// real Optane rises with region size.
	small := chaseNs(t, NewSlowDRAM(RamulatorPCM), 4<<10)
	large := chaseNs(t, NewSlowDRAM(RamulatorPCM), 512<<10)
	ratio := large / small
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("PCM latency not flat: small=%.0f large=%.0f", small, large)
	}
}

func TestSlowDRAMPostedWrites(t *testing.T) {
	s := NewSlowDRAM(RamulatorDDR4)
	d := mem.NewDriver(s)
	st := d.RunChain([]mem.Access{{Op: mem.OpWrite, Addr: 0, Size: 64}})[0]
	ld := d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 1 << 20, Size: 64}})[0]
	if st >= ld {
		t.Fatalf("posted store (%d) not faster than load (%d)", st, ld)
	}
	d.Fence()
	if !s.Drained() {
		t.Fatal("not drained after fence")
	}
}

func TestSlowDRAMWriteQueueBackpressure(t *testing.T) {
	s := NewSlowDRAM(RamulatorPCM)
	accepted := 0
	for i := 0; i < 200; i++ {
		r := &mem.Request{Op: mem.OpWrite, Addr: uint64(i) * 8192 * 16, Size: 64}
		if s.Submit(r) {
			accepted++
		} else {
			break
		}
	}
	if accepted >= 200 {
		t.Fatal("write queue never exerted backpressure")
	}
	s.Engine().Run()
}

package mem

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpRead: "load", OpWrite: "store", OpWriteNT: "store-nt",
		OpClwb: "clwb", OpFence: "mfence", Op(99): "op(99)",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
}

func TestOpIsWrite(t *testing.T) {
	if !OpWrite.IsWrite() || !OpWriteNT.IsWrite() {
		t.Fatal("writes not classified as writes")
	}
	if OpRead.IsWrite() || OpClwb.IsWrite() || OpFence.IsWrite() {
		t.Fatal("non-writes classified as writes")
	}
}

func TestAlign(t *testing.T) {
	if AlignDown(100, 64) != 64 {
		t.Fatal("AlignDown(100,64)")
	}
	if AlignDown(128, 64) != 128 {
		t.Fatal("AlignDown(128,64)")
	}
	if AlignUp(100, 64) != 128 {
		t.Fatal("AlignUp(100,64)")
	}
	if AlignUp(128, 64) != 128 {
		t.Fatal("AlignUp(128,64)")
	}
}

func TestLineSpan(t *testing.T) {
	blocks := LineSpan(60, 8, 64) // crosses 0..63 and 64..127
	if len(blocks) != 2 || blocks[0] != 0 || blocks[1] != 64 {
		t.Fatalf("LineSpan(60,8,64) = %v", blocks)
	}
	blocks = LineSpan(256, 256, 256)
	if len(blocks) != 1 || blocks[0] != 256 {
		t.Fatalf("LineSpan(256,256,256) = %v", blocks)
	}
	if LineSpan(0, 0, 64) != nil {
		t.Fatal("LineSpan zero size should be nil")
	}
}

// Property: LineSpan covers the byte range exactly — every byte of
// [addr, addr+size) falls in exactly one returned block, blocks are aligned,
// strictly increasing, and contiguous.
func TestLineSpanCoversRange(t *testing.T) {
	f := func(addrRaw uint32, sizeRaw uint16, blkSel uint8) bool {
		blockSize := uint64(64) << (blkSel % 4) // 64,128,256,512
		addr := uint64(addrRaw)
		size := uint32(sizeRaw%2048) + 1
		blocks := LineSpan(addr, size, blockSize)
		if len(blocks) == 0 {
			return false
		}
		for i, b := range blocks {
			if b%blockSize != 0 {
				return false
			}
			if i > 0 && b != blocks[i-1]+blockSize {
				return false
			}
		}
		return blocks[0] <= addr && blocks[len(blocks)-1]+blockSize >= addr+uint64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesFormat(t *testing.T) {
	cases := map[uint64]string{
		64: "64", 1024: "1K", 64 << 10: "64K", 4 << 20: "4M",
		256 << 20: "256M", 1 << 30: "1G", 1000: "1000",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
}

// fakeSystem is a minimal System with fixed latency and a bounded front
// queue, used to exercise the drivers. It logs the address of each request
// it accepts and counts refusals. Requests complete through ScheduleFn with
// a callback bound once, so once warm the fake allocates nothing per
// request. With tick > 0 a clock event also fires every tick cycles while
// requests are in flight, as a memory controller's drain does: events that
// free no slot, so a refused request is retried many times before a
// completion lets it in.
type fakeSystem struct {
	eng      *sim.Engine
	latency  sim.Cycle
	capacity int
	inflight int
	accepted []uint64
	refused  int
	done     func(any)

	tick    sim.Cycle
	ticking bool
}

func newFakeSystem(latency sim.Cycle, capacity int) *fakeSystem {
	f := &fakeSystem{eng: sim.NewEngine(), latency: latency, capacity: capacity}
	f.done = func(a any) {
		f.inflight--
		a.(*Request).Complete(f.eng.Now())
	}
	return f
}

func (f *fakeSystem) Engine() *sim.Engine    { return f.eng }
func (f *fakeSystem) CyclesPerNano() float64 { return 1 }
func (f *fakeSystem) Drained() bool          { return f.inflight == 0 }

func (f *fakeSystem) Submit(r *Request) bool {
	if f.inflight >= f.capacity {
		f.refused++
		return false
	}
	f.inflight++
	r.Issued = f.eng.Now()
	f.accepted = append(f.accepted, r.Addr)
	f.eng.ScheduleFn(f.eng.Now()+f.latency, f.done, r)
	if f.tick > 0 && !f.ticking {
		f.ticking = true
		f.eng.AfterFn(f.tick, fakeTick, f)
	}
	return true
}

// fakeTick is the clock: it re-arms while requests are in flight.
func fakeTick(a any) {
	f := a.(*fakeSystem)
	if f.ticking = f.inflight > 0; f.ticking {
		f.eng.AfterFn(f.tick, fakeTick, f)
	}
}

func TestDriverRunChainSerializes(t *testing.T) {
	sys := newFakeSystem(10, 4)
	d := NewDriver(sys)
	accs := []Access{{Op: OpRead, Size: 64}, {Op: OpRead, Addr: 64, Size: 64}, {Op: OpRead, Addr: 128, Size: 64}}
	lats := d.RunChain(accs)
	if len(lats) != 3 {
		t.Fatalf("got %d latencies", len(lats))
	}
	for i, l := range lats {
		if l != 10 {
			t.Fatalf("latency[%d] = %d, want 10", i, l)
		}
	}
	// Serialized: total time is 3*10.
	if sys.eng.Now() != 30 {
		t.Fatalf("end = %d, want 30", sys.eng.Now())
	}
}

func TestDriverRunWindowOverlaps(t *testing.T) {
	sys := newFakeSystem(10, 16)
	d := NewDriver(sys)
	accs := make([]Access, 8)
	for i := range accs {
		accs[i] = Access{Op: OpWrite, Addr: uint64(i * 64), Size: 64}
	}
	elapsed := d.RunWindow(accs, 8)
	// All 8 fit in one window and the fake has no bandwidth limit: total
	// time is a single latency.
	if elapsed != 10 {
		t.Fatalf("elapsed = %d, want 10", elapsed)
	}
	elapsed = d.RunWindow(accs, 1)
	if elapsed != 80 {
		t.Fatalf("window=1 elapsed = %d, want 80", elapsed)
	}
}

func TestDriverBackpressure(t *testing.T) {
	sys := newFakeSystem(5, 2)
	d := NewDriver(sys)
	accs := make([]Access, 10)
	for i := range accs {
		accs[i] = Access{Op: OpWrite, Addr: uint64(i * 64), Size: 64}
	}
	elapsed := d.RunWindow(accs, 64) // window larger than system capacity
	// Capacity 2, latency 5: 10 reqs finish in ceil(10/2)*5 = 25 cycles.
	if elapsed != 25 {
		t.Fatalf("elapsed = %d, want 25", elapsed)
	}
}

func TestDriverRunChainTimed(t *testing.T) {
	sys := newFakeSystem(7, 1)
	d := NewDriver(sys)
	res := d.RunChainTimed([]Access{{Op: OpRead, Size: 64}, {Op: OpRead, Addr: 64, Size: 64}})
	if res.TotalCycles != 14 {
		t.Fatalf("TotalCycles = %d, want 14", res.TotalCycles)
	}
}

// TestDriverRunStreamsInterleaves pins the multi-stream issue order: each
// stream fills its window or is refused before the next one goes, and the
// engine steps one event only when a pass over the streams got nothing in.
// Two streams, window 2, capacity 3, latency 10.
func TestDriverRunStreamsInterleaves(t *testing.T) {
	sys := newFakeSystem(10, 3)
	d := NewDriver(sys)
	a := []Access{{Op: OpWrite, Addr: 0xa0}, {Op: OpWrite, Addr: 0xa1}, {Op: OpWrite, Addr: 0xa2}, {Op: OpWrite, Addr: 0xa3}}
	b := []Access{{Op: OpWrite, Addr: 0xb0}, {Op: OpWrite, Addr: 0xb1}, {Op: OpWrite, Addr: 0xb2}, {Op: OpWrite, Addr: 0xb3}}
	elapsed := d.RunStreams([][]Access{a, b}, 2)
	// Cycle 0: a0 a1 fill a's window, b0 fills the system, b1 is refused.
	// Each completion at 10 lets one request in: a2, a3 (a done), b1. At
	// 20, a2's completion admits b2; a3's frees a slot that b's full window
	// cannot use; b1's admits b3. b2 and b3 complete at 30.
	want := []uint64{0xa0, 0xa1, 0xb0, 0xa2, 0xa3, 0xb1, 0xb2, 0xb3}
	if !slices.Equal(sys.accepted, want) {
		t.Fatalf("accepted %x, want %x", sys.accepted, want)
	}
	if elapsed != 30 || sys.eng.Fired() != 8 || !sys.Drained() {
		t.Fatalf("elapsed %d, %d events fired, drained %v; want 30, 8, true",
			elapsed, sys.eng.Fired(), sys.Drained())
	}
}

// TestDriverRunWindowUntilStopsAtCut: a cut mid-stream returns the accepted
// prefix, fires no event past the cut and drains nothing.
func TestDriverRunWindowUntilStopsAtCut(t *testing.T) {
	sys := newFakeSystem(10, 2)
	d := NewDriver(sys)
	accs := make([]Access, 8)
	for i := range accs {
		accs[i] = Access{Op: OpWrite, Addr: uint64(i) * 64, Size: 64}
	}
	const cut = 25
	n := d.RunWindowUntil(accs, 4, cut)
	// a0 a1 at 0; each completion at 10 and 20 admits one more (a2..a5);
	// a6 is refused and the next event, a4's completion at 30, lies past
	// the cut.
	if n != 6 || len(sys.accepted) != n {
		t.Fatalf("accepted %d (system saw %d), want 6", n, len(sys.accepted))
	}
	for i, addr := range sys.accepted {
		if addr != accs[i].Addr {
			t.Fatalf("acceptance %d is %#x, want accs[%d] %#x: not the prefix", i, addr, i, accs[i].Addr)
		}
	}
	if now := sys.eng.Now(); now != 20 {
		t.Fatalf("stopped at %d, want 20 (the last event at or before the cut %d)", now, cut)
	}
	if sys.eng.Fired() != 4 || sys.inflight != 2 || sys.eng.Pending() != 2 {
		t.Fatalf("fired %d, in flight %d, pending %d; want 4, 2, 2 (no drain)",
			sys.eng.Fired(), sys.inflight, sys.eng.Pending())
	}
}

func TestBandwidthGBs(t *testing.T) {
	sys := newFakeSystem(1, 1) // 1 cycle/ns
	// 1000 bytes in 100 cycles = 100ns -> 10 GB/s.
	if got := BandwidthGBs(sys, 1000, 100); got != 10 {
		t.Fatalf("BandwidthGBs = %v, want 10", got)
	}
	if BandwidthGBs(sys, 1000, 0) != 0 {
		t.Fatal("zero elapsed should give 0")
	}
}

func TestRequestCompleteStampsDone(t *testing.T) {
	var fired int
	r := &Request{OnDone: func(*Request) { fired++ }}
	r.Issued = 5
	r.Complete(25)
	if fired != 1 {
		t.Fatal("OnDone not fired exactly once")
	}
	if r.Latency() != 20 {
		t.Fatalf("Latency = %d, want 20", r.Latency())
	}
}

func TestRequestLine(t *testing.T) {
	r := &Request{Addr: 130}
	if r.Line() != 128 {
		t.Fatalf("Line = %d, want 128", r.Line())
	}
}

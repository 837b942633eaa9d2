package imc

import (
	"testing"

	"repro/internal/nvdimm"
	"repro/internal/sim"
)

func newIMC(t *testing.T, n int, interleaved bool) (*sim.Engine, *IMC) {
	t.Helper()
	eng := sim.NewEngine()
	nv := nvdimm.DefaultConfig()
	nv.Media.Capacity = 32 << 20
	var dimms []*nvdimm.DIMM
	for i := 0; i < n; i++ {
		dimms = append(dimms, nvdimm.New(eng, nv, uint64(i+1)))
	}
	cfg := DefaultConfig()
	cfg.Interleaved = interleaved
	return eng, New(eng, cfg, dimms)
}

func TestReadCompletes(t *testing.T) {
	eng, m := newIMC(t, 1, false)
	done := false
	if !m.Read(4096, func(any, error) { done = true }, nil) {
		t.Fatal("read rejected")
	}
	eng.Run()
	if !done {
		t.Fatal("read never completed")
	}
	if m.Stats().Reads != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestWriteCompletesAtWPQAccept(t *testing.T) {
	eng, m := newIMC(t, 1, false)
	var at sim.Cycle = sim.Never
	if !m.Write(64, nil, func(any) { at = eng.Now() }, nil) {
		t.Fatal("write rejected")
	}
	var readAt sim.Cycle = sim.Never
	m.Read(1<<20, func(any, error) { readAt = eng.Now() }, nil)
	eng.Run()
	if at == sim.Never || readAt == sim.Never {
		t.Fatal("operations never completed")
	}
	if at >= readAt {
		t.Fatalf("posted write (%d) not faster than cold read (%d)", at, readAt)
	}
}

func TestWPQBackpressureAfterCapacityDistinctLines(t *testing.T) {
	eng, m := newIMC(t, 1, false)
	accepted := 0
	for i := 0; i < 64; i++ {
		if m.Write(uint64(i)*64, nil, func(any) {}, nil) {
			accepted++
		} else {
			break
		}
	}
	if accepted < 8 {
		t.Fatalf("accepted only %d writes, want at least WPQ capacity (8)", accepted)
	}
	if accepted >= 64 {
		t.Fatal("WPQ never exerted backpressure over 64 distinct lines")
	}
	eng.Run()
}

// TestRefusedLineAnswersLikeTheProbe pins the refused-line memo inside
// nvdimm.LSQ to the line-map probe it skips, for both queues an LSQ backs:
// the WPQ through IMC.Write and the DIMM's LSQ through DIMM.AcceptWrite.
// Once the queue is full, a store to a held line merges while another line
// is refused, a second new line is refused too, and then, after every
// event, a retry of the refused line is accepted exactly when the queue
// holds the line or has a free slot. A memo that refuses any line fails the
// merge; one that a pop never clears fails the retries.
func TestRefusedLineAnswersLikeTheProbe(t *testing.T) {
	eng, m := newIMC(t, 1, false)
	ch := m.channels[0]
	write := func(line uint64) bool { return m.Write(line, nil, func(any) {}, nil) }
	t.Run("wpq", func(t *testing.T) { checkRefusedLine(t, eng, ch.wpq, write) })

	eng, m = newIMC(t, 1, false)
	d := m.channels[0].dimm
	accept := func(line uint64) bool { return d.AcceptWrite(line, nil) }
	t.Run("dimm-lsq", func(t *testing.T) { checkRefusedLine(t, eng, d.LSQ(), accept) })
}

// checkRefusedLine fills q through offer, one new line at a time, then
// checks offer's answers against q's probe as described above.
func checkRefusedLine(t *testing.T, eng *sim.Engine, q *nvdimm.LSQ, offer func(line uint64) bool) {
	t.Helper()
	next := uint64(0)
	for offer(next) {
		next += 64
	}
	if !q.Full() || q.Contains(next) {
		t.Fatalf("after filling: full %v, refused line %#x held %v", q.Full(), next, q.Contains(next))
	}
	merges := q.Merges()
	if !offer(next-64) || q.Merges() != merges+1 {
		t.Fatal("a store to a held line did not merge while another line was refused")
	}
	if offer(next + 64) {
		t.Fatal("a second new line was accepted by a full queue")
	}
	retries := 0
	for {
		want := q.Contains(next) || !q.Full()
		if got := offer(next); got != want {
			t.Fatalf("retry %d at cycle %d: offer %v, the probe says %v", retries, eng.Now(), got, want)
		} else if got {
			break
		}
		retries++
		if !eng.Step() {
			t.Fatal("the engine ran dry with the store still refused")
		}
	}
	if retries == 0 {
		t.Fatal("the refused store was accepted without waiting for a pop")
	}
	eng.Run()
}

// TestDrainRetryWithReads pins a channel whose WPQ drain is refused by a
// full DIMM LSQ while reads share its bus: seq NT stores pumped through
// Write with a step-and-retry loop, and reads of lines the stores never
// touch until the last store is accepted. The gap between reads cycles
// from 300 to 5,200 cycles, so some refusals find a read in flight and
// others an idle read path. A refused drain retry acquires the bus for a
// write transfer, so each read's timing depends on where the retries
// stand; the end cycle, the DIMM's LSQStalls and the completed-request
// count pin that interplay.
func TestDrainRetryWithReads(t *testing.T) {
	const (
		stores   = 8192
		readBase = 16 << 20
	)
	readGap := func(k int) sim.Cycle { return sim.Cycle(300 + k%8*700) }
	eng, m := newIMC(t, 1, false)
	completed, reads := 0, 0
	storeDone := func(any) { completed++ }
	readDone := func(any, error) { completed++ }
	issued := 0
	var reader func()
	reader = func() {
		if issued == stores {
			return
		}
		if m.Read(readBase+uint64(reads)*4096, readDone, nil) {
			reads++
		}
		eng.After(readGap(reads), reader)
	}
	eng.After(readGap(0), reader)
	for issued < stores {
		if m.Write(uint64(issued)*64, nil, storeDone, nil) {
			issued++
			continue
		}
		if !eng.Step() {
			t.Fatalf("the engine ran dry with store %d refused", issued)
		}
	}
	eng.Run()
	stalls := m.Channels()[0].DIMM().Stats().LSQStalls
	if completed != stores+reads {
		t.Fatalf("%d requests completed, want %d stores and %d reads", completed, stores, reads)
	}
	const wantEnd, wantStalls, wantReads = 656088, 3784, 236
	if eng.Now() != wantEnd || stalls != wantStalls || reads != wantReads {
		t.Fatalf("ended at cycle %d with %d LSQ stalls and %d reads, want %d, %d and %d",
			eng.Now(), stalls, reads, wantEnd, wantStalls, wantReads)
	}
}

func TestWPQMergeAvoidsBackpressure(t *testing.T) {
	eng, m := newIMC(t, 1, false)
	// Hammer the same line: merging must always accept.
	for i := 0; i < 100; i++ {
		if !m.Write(0, nil, func(any) {}, nil) {
			t.Fatalf("merge write %d rejected", i)
		}
	}
	eng.Run()
	if m.Stats().WPQMerges == 0 {
		t.Fatal("no WPQ merges recorded")
	}
}

func TestFenceDrainsEverything(t *testing.T) {
	eng, m := newIMC(t, 2, true)
	for i := 0; i < 16; i++ {
		m.Write(uint64(i)*64, nil, func(any) {}, nil)
	}
	fenced := false
	m.Fence(func(any) { fenced = true }, nil)
	eng.Run()
	if !fenced {
		t.Fatal("fence never completed")
	}
	if m.Busy() {
		t.Fatal("iMC busy after fence")
	}
}

func TestRPQBoundsOutstandingReads(t *testing.T) {
	_, m := newIMC(t, 1, false)
	issued := 0
	for i := 0; i < 64; i++ {
		if m.Read(uint64(i)*4096, func(any, error) {}, nil) {
			issued++
		}
	}
	if issued != DefaultConfig().RPQSlots {
		t.Fatalf("issued %d reads, want RPQ capacity %d", issued, DefaultConfig().RPQSlots)
	}
}

func TestRouteDistributesAcrossChannels(t *testing.T) {
	_, m := newIMC(t, 6, true)
	seen := map[int]bool{}
	for i := 0; i < 6; i++ {
		ch, _ := m.Route(uint64(i) * 4096)
		seen[ch] = true
	}
	if len(seen) != 6 {
		t.Fatalf("6 consecutive 4KB spans hit %d channels, want 6", len(seen))
	}
}

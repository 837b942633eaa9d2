package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestMultiChannelRouteBijection(t *testing.T) {
	m := NewMultiChannel(DefaultMultiChannelConfig())
	f := func(addrRaw uint64) bool {
		addr := addrRaw % (1 << 34)
		ch, local := m.Route(addr)
		if ch < 0 || ch >= 4 {
			return false
		}
		return m.Unroute(ch, local) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiChannelLineInterleaving(t *testing.T) {
	m := NewMultiChannel(DefaultMultiChannelConfig())
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		ch, _ := m.Route(uint64(i) * 64)
		seen[ch] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 consecutive lines hit %d channels, want 4", len(seen))
	}
}

func TestMultiChannelBandwidthScales(t *testing.T) {
	bw := func(channels int) float64 {
		cfg := DefaultMultiChannelConfig()
		cfg.Channels = channels
		cfg.Channel.RefreshEnabled = false
		m := NewMultiChannel(cfg)
		d := mem.NewDriver(m)
		n := 4096
		accs := make([]mem.Access, n)
		for i := range accs {
			accs[i] = mem.Access{Op: mem.OpRead, Addr: uint64(i) * 64, Size: 64}
		}
		elapsed := d.RunWindow(accs, 32)
		return mem.BandwidthGBs(m, uint64(n)*64, elapsed)
	}
	one := bw(1)
	four := bw(4)
	if four < 2*one {
		t.Fatalf("4-channel bandwidth (%.2f) not >= 2x 1-channel (%.2f)", four, one)
	}
}

func TestMultiChannelWritesAndFence(t *testing.T) {
	m := NewMultiChannel(DefaultMultiChannelConfig())
	d := mem.NewDriver(m)
	accs := make([]mem.Access, 128)
	for i := range accs {
		accs[i] = mem.Access{Op: mem.OpWrite, Addr: uint64(i) * 64, Size: 64}
	}
	d.RunWindow(accs, 16)
	d.Fence()
	if !m.Drained() {
		t.Fatal("not drained after fence")
	}
	var writes uint64
	for _, ch := range m.Channels() {
		writes += ch.Stats().Writes
	}
	if writes != 128 {
		t.Fatalf("channel writes = %d, want 128", writes)
	}
}

func TestMultiChannelSingleChannelDegenerate(t *testing.T) {
	cfg := DefaultMultiChannelConfig()
	cfg.Channels = 1
	m := NewMultiChannel(cfg)
	if ch, local := m.Route(12345); ch != 0 || local != 12345 {
		t.Fatalf("single-channel route = %d,%d", ch, local)
	}
}

func TestMultiChannelWriteBackpressure(t *testing.T) {
	cfg := DefaultMultiChannelConfig()
	cfg.WriteQueue = 4
	m := NewMultiChannel(cfg)
	accepted := 0
	for i := 0; i < 64; i++ {
		if m.Submit(&mem.Request{Op: mem.OpWrite, Addr: uint64(i) * 8192 * 16, Size: 64}) {
			accepted++
		} else {
			break
		}
	}
	if accepted >= 64 {
		t.Fatal("write queue never exerted backpressure")
	}
	m.Engine().Run()
}

// TestMultiChannelPostedLatency: a posted store completes to its issuer
// exactly PostedNs after issue, whatever its channel's drain costs: 20 ns on
// the Table V memory, 25 ns on the one-channel slower-DRAM flavors.
func TestMultiChannelPostedLatency(t *testing.T) {
	for _, c := range []struct {
		channels int
		ns       float64
	}{{4, 20}, {1, 25}} {
		cfg := DefaultMultiChannelConfig()
		cfg.Channels = c.channels
		cfg.PostedNs = c.ns
		m := NewMultiChannel(cfg)
		d := mem.NewDriver(m)
		d.RunChain([]mem.Access{{Op: mem.OpRead, Addr: 1 << 20, Size: 64}})
		st := &mem.Request{Op: mem.OpWrite, Addr: 0, Size: 64}
		if !m.Submit(st) {
			t.Fatalf("%v ns: store refused", c.ns)
		}
		m.Engine().Run()
		if st.Issued == 0 {
			t.Fatalf("%v ns: store issued at cycle 0, want after the read", c.ns)
		}
		if got, want := st.Done-st.Issued, NsToCycles(c.ns); got != want {
			t.Fatalf("%v ns, %d channels: store completed %d cycles after issue, want %d",
				c.ns, c.channels, got, want)
		}
	}
}

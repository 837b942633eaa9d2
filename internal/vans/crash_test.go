package vans

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// crashConfig returns a small functional App Direct config for crash tests.
func crashConfig(dimms int) Config {
	cfg := DefaultConfig()
	cfg.DIMMs = dimms
	cfg.Interleaved = dimms > 1
	cfg.Functional = true
	cfg.NV.Media.Capacity = 32 << 20
	return cfg
}

// randomWorkload builds a line-aligned mixed read/write stream.
func randomWorkload(seed uint64, n int, span uint64) []mem.Access {
	rng := sim.NewRNG(seed)
	accs := make([]mem.Access, n)
	for i := range accs {
		op := mem.OpWrite
		switch rng.Uint64n(4) {
		case 0:
			op = mem.OpRead
		case 1:
			op = mem.OpWriteNT
		}
		accs[i] = mem.Access{
			Op:   op,
			Addr: rng.Uint64n(span/64) * 64,
			Size: 64,
		}
	}
	return accs
}

func TestCheckPowerFailConsistentAcrossCutSweep(t *testing.T) {
	cfg := crashConfig(1)
	accs := randomWorkload(3, 400, 1<<20)
	// Measure the fault-free run length so the sweep covers the whole
	// lifetime: start, deep inside, and past the end.
	full, err := CheckPowerFail(cfg, accs, 8, sim.Cycle(1)<<62, 11)
	if err != nil {
		t.Fatal(err)
	}
	if full.LostWrites != 0 {
		t.Fatalf("un-cut run lost %d writes", full.LostWrites)
	}
	end := sim.Cycle(full.EndCycle)
	if end == 0 {
		t.Fatal("empty run")
	}
	cuts := []sim.Cycle{0, 1, end / 17, end / 5, end / 3, end / 2, 2 * end / 3, end - 1, end, end + 1000}
	reports, err := SweepPowerFail(cfg, accs, 8, cuts, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if !rep.Consistent {
			t.Errorf("cut %d (cycle %d): inconsistent recovery: %+v", i, cuts[i], rep.Mismatches)
		}
		if rep.AcceptedWrites+rep.LostWrites == 0 {
			t.Errorf("cut %d: no writes tracked", i)
		}
	}
	// Later cuts never shrink the durable set.
	for i := 1; i < len(reports); i++ {
		if reports[i].AcceptedWrites < reports[i-1].AcceptedWrites {
			t.Errorf("accepted writes not monotone over cuts: %d then %d",
				reports[i-1].AcceptedWrites, reports[i].AcceptedWrites)
		}
	}
	// Every cut exactly: where each run stopped and which writes it had
	// accepted, pinned as one hash over the ten reports (recorded on
	// linux/amd64, like the golden files).
	if runtime.GOARCH != "amd64" {
		return
	}
	raw, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != cutSweepSHA256 {
		t.Errorf("cut sweep sha256 = %s, want %s\nreports: %s", got, cutSweepSHA256, raw)
	}
}

// cutSweepSHA256 is the SHA-256 of the JSON of the cut sweep's ten reports.
const cutSweepSHA256 = "351cff2d35c1b9698875a2f234331cb5a268236314c765d279ee03ed4ff2eb8c"

func TestPowerFailSweepByteIdenticalAcrossRuns(t *testing.T) {
	cfg := crashConfig(1)
	accs := randomWorkload(9, 200, 1<<19)
	cuts := []sim.Cycle{500, 5000, 50000, 500000}
	a, err := SweepPowerFail(cfg, accs, 4, cuts, 23)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepPowerFail(cfg, accs, 4, cuts, 23)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("sweep not byte-identical:\n%s\n%s", ja, jb)
	}
}

// TestADRInvariantRandomized is the property test: across random workloads
// and random power-fail cycles, recovery exposes exactly the WPQ-accepted
// writes. Run under -race by the CI target.
func TestADRInvariantRandomized(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	rng := sim.NewRNG(0xade)
	for trial := 0; trial < trials; trial++ {
		dimms := 1
		if trial%3 == 2 {
			dimms = 2
		}
		cfg := crashConfig(dimms)
		n := 50 + int(rng.Uint64n(300))
		accs := randomWorkload(rng.Uint64(), n, 1<<18<<rng.Uint64n(3))
		window := 1 + int(rng.Uint64n(16))
		// Cuts are drawn over a wide range; many land mid-flight.
		cut := sim.Cycle(rng.Uint64n(2_000_000))
		seed := rng.Uint64()
		rep, err := CheckPowerFail(cfg, accs, window, cut, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Consistent {
			t.Fatalf("trial %d (dimms=%d n=%d window=%d cut=%d): %+v",
				trial, dimms, n, window, cut, rep.Mismatches)
		}
	}
}

func TestCheckPowerFailRejectsMemoryMode(t *testing.T) {
	cfg := crashConfig(1)
	cfg.Mode = MemoryMode
	if _, err := CheckPowerFail(cfg, randomWorkload(1, 10, 1<<16), 4, 1000, 1); err == nil {
		t.Fatal("memory mode accepted")
	}
}

func TestRecoverPreservesCleanImage(t *testing.T) {
	cfg := crashConfig(1)
	sys := New(cfg)
	d := mem.NewDriver(sys)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i + 1)
	}
	d.RunChain([]mem.Access{{Op: mem.OpWrite, Addr: 4096, Size: 64, Data: payload}})
	d.Fence()
	rec := sys.Recover()
	got := rec.ReadData(4096, 64)
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, got[i], payload[i])
		}
	}
}

package server

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/exp"
	"repro/internal/fault"
)

// overwriteTrace builds an inline text trace that hammers a small address set
// with stores — the access pattern of the wear-leveling / overwrite-tail
// figures.
func overwriteTrace(lines, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d store 0x%x 64\n", i, uint64(i%lines)*64)
	}
	return b.String()
}

// figureSpec names one representative job shape; figureSpecs maps every
// registered experiment onto one (or marks it static). The restore-identity
// test runs each distinct shape once.
type figureSpec struct {
	key string
	// static marks table-only experiments with no simulation to checkpoint.
	static bool
}

var figureShapes = map[string]JobSpec{
	// Dependent-chain latency probes over one DIMM (buffer probers, accuracy
	// and characterization figures).
	"chase-1dimm": {
		Config:   ConfigSpec{MediaBytes: "16M"},
		Workload: WorkloadSpec{Kind: "chase", Region: "256K", MaxSteps: 2400},
		Seed:     7, CkptEvery: 700,
	},
	// The same chain across 6 interleaved DIMMs (interleaving figures).
	"chase-6dimm": {
		Config:   ConfigSpec{DIMMs: 6, Interleaved: true, MediaBytes: "8M"},
		Workload: WorkloadSpec{Kind: "chase", Region: "256K", MaxSteps: 2400},
		Seed:     7, CkptEvery: 700,
	},
	// Media-capacity sensitivity: a smaller media with the same chain.
	"chase-smallmedia": {
		Config:   ConfigSpec{MediaBytes: "4M"},
		Workload: WorkloadSpec{Kind: "chase", Region: "128K", MaxSteps: 2400},
		Seed:     7, CkptEvery: 700,
	},
	// Streaming stores over 6 DIMMs (bandwidth / MLP / scaling figures).
	"stream-6dimm": {
		Config:   ConfigSpec{DIMMs: 6, Interleaved: true, MediaBytes: "8M"},
		Workload: WorkloadSpec{Kind: "seq", Bytes: "128K", Op: "store-nt"},
		Window:   8, Seed: 7, CkptEvery: 600,
	},
	// Streaming loads through the RMW/AIT path (amplification / ablation
	// figures).
	"stream-rmw": {
		Config:   ConfigSpec{MediaBytes: "16M"},
		Workload: WorkloadSpec{Kind: "seq", Bytes: "128K", Op: "store"},
		Window:   8, Seed: 7, CkptEvery: 600,
	},
	// Overwrite pressure on a hot line set (wear-leveling / tail figures).
	"overwrite": {
		Config:   ConfigSpec{MediaBytes: "16M"},
		Workload: WorkloadSpec{Kind: "trace", Trace: overwriteTrace(37, 2600)},
		Window:   4, Seed: 7, CkptEvery: 800,
	},
	// Memory mode with the DRAM near cache in the loop (optimization and
	// DRAM-main-memory figures).
	"memory-mode": {
		Config:   ConfigSpec{Mode: "memory", MediaBytes: "16M", DRAMCache: "1M"},
		Workload: WorkloadSpec{Kind: "chase", Region: "256K", MaxSteps: 2400},
		Seed:     7, CkptEvery: 700,
	},
	// A cloud workload captured through the CPU substrate (profiling and
	// Section V figures).
	"cloud": {
		Config:   ConfigSpec{MediaBytes: "16M"},
		Workload: WorkloadSpec{Kind: "cloud", Name: "Redis", Instructions: 9000, Footprint: "1M"},
		Window:   8, Seed: 7, CkptEvery: 300,
	},
	// A SPEC bench through the same capture path (Table IV / Figure 11).
	"cloud-spec": {
		Config:   ConfigSpec{MediaBytes: "16M"},
		Workload: WorkloadSpec{Kind: "cloud", Name: "mcf", Instructions: 9000, Footprint: "1M"},
		Window:   8, Seed: 7, CkptEvery: 300,
	},
}

var figureSpecs = map[string]figureSpec{
	"tab1": {static: true}, "tab2": {static: true}, "tab3": {static: true},
	"tab5": {static: true},

	"fig1a": {key: "stream-6dimm"},
	"fig1b": {key: "chase-1dimm"},
	"fig3a": {key: "chase-1dimm"},
	"fig3b": {key: "chase-1dimm"},
	"fig4":  {key: "chase-1dimm"},
	"fig5a": {key: "chase-1dimm"},
	"fig5b": {key: "chase-1dimm"},
	"fig5c": {key: "chase-1dimm"},
	"fig5d": {key: "chase-1dimm"},
	"fig6a": {key: "stream-rmw"},
	"fig6b": {key: "stream-rmw"},
	"fig7a": {key: "stream-6dimm"},
	"fig7b": {key: "overwrite"},
	"fig7c": {key: "overwrite"},
	"fig7d": {key: "overwrite"},
	"fig9a": {key: "chase-1dimm"},
	"fig9b": {key: "chase-6dimm"},
	"fig9c": {key: "stream-rmw"},
	"fig9d": {key: "overwrite"},
	"fig9e": {key: "chase-1dimm"},

	"fig10a": {key: "chase-smallmedia"},
	"fig10b": {key: "chase-6dimm"},
	"tab4":   {key: "cloud-spec"},
	"fig11a": {key: "cloud-spec"},
	"fig11b": {key: "cloud-spec"},
	"fig11c": {key: "cloud-spec"},
	"fig11d": {key: "cloud-spec"},
	"fig12a": {key: "cloud"},
	"fig12b": {key: "cloud"},
	"fig13d": {key: "memory-mode"},
	"fig13e": {key: "memory-mode"},

	"abl-wpolicy":  {key: "stream-rmw"},
	"abl-linefill": {key: "stream-rmw"},
	"abl-sched":    {key: "stream-rmw"},
	"abl-ileave":   {key: "chase-6dimm"},
	"abl-mlp":      {key: "stream-6dimm"},
	"abl-lsq":      {key: "stream-rmw"},
	"scaling":      {key: "stream-6dimm"},

	"other-nvram": {key: "overwrite"},
}

// TestRestoreIdentityFigures: for a representative job of every figure
// experiment, checkpoint mid-run, restore in a fresh runner, and require the
// canonical result (timings, counters, obs dump) byte-identical to the
// uninterrupted run. The completeness check pins the map to the experiment
// registry so new figures cannot dodge the restore-identity property.
func TestRestoreIdentityFigures(t *testing.T) {
	for _, id := range exp.IDs() {
		fs, ok := figureSpecs[id]
		if !ok {
			t.Errorf("experiment %q has no restore-identity mapping; add it to figureSpecs", id)
			continue
		}
		if fs.static {
			continue
		}
		if _, ok := figureShapes[fs.key]; !ok {
			t.Errorf("experiment %q maps to unknown shape %q", id, fs.key)
		}
	}
	for id := range figureSpecs {
		if _, ok := exp.Lookup(id); !ok {
			t.Errorf("figureSpecs names unregistered experiment %q", id)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	for key, spec := range figureShapes {
		spec := spec
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			p, err := spec.Compile()
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			// Straight run, capturing the first barrier snapshot.
			var snap []byte
			io1 := &CkptIO{Sink: func(idx int, s []byte) error {
				if snap == nil {
					snap = s
				}
				return nil
			}}
			straight, err := NewRunner().RunAttemptCkpt(context.Background(), p, 0, io1)
			if err != nil {
				t.Fatalf("straight run: %v", err)
			}
			if snap == nil || io1.Saves == 0 {
				t.Fatalf("no barrier fired (saves=%d); shrink CkptEvery for shape %q", io1.Saves, key)
			}
			// Fresh runner, restore the straight run's snapshot, run to
			// completion.
			io2 := &CkptIO{Resume: snap}
			resumed, err := NewRunner().RunAttemptCkpt(context.Background(), p, 0, io2)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if io2.ResumedFrom == 0 {
				t.Fatal("resumed run did not report a restore")
			}
			if !bytes.Equal(straight.Canonical(), resumed.Canonical()) {
				t.Fatalf("resumed result differs from straight run\nstraight: %s\nresumed:  %s",
					straight.Canonical(), resumed.Canonical())
			}
		})
	}
}

// TestWarmStartFork: two sweep points sharing a warmup prefix — the second
// forks from the first's cached warm snapshot and still produces results
// byte-identical to running its full plan from scratch.
func TestWarmStartFork(t *testing.T) {
	warm := WorkloadSpec{Kind: "seq", Bytes: "64K", Op: "store"}
	mk := func(region string) JobSpec {
		return JobSpec{
			Config:   ConfigSpec{MediaBytes: "16M"},
			Workload: WorkloadSpec{Kind: "chase", Region: region, MaxSteps: 1200},
			Warmup:   &warm, Seed: 7,
		}
	}
	s := New(Options{Workers: 1, QueueDepth: 8})
	defer s.Shutdown(time.Second)

	stA, err := s.Submit(mk("64K"))
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	if stA, err = s.Wait(context.Background(), stA.ID); err != nil || stA.State != JobDone {
		t.Fatalf("A: %+v err=%v", stA, err)
	}
	if stA.WarmStarted {
		t.Fatal("first point cannot warm-start (nothing cached yet)")
	}
	if s.warm.Len() == 0 {
		t.Fatal("warm snapshot was not cached")
	}

	stB, err := s.Submit(mk("128K"))
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	if stB, err = s.Wait(context.Background(), stB.ID); err != nil || stB.State != JobDone {
		t.Fatalf("B: %+v err=%v", stB, err)
	}
	if !stB.WarmStarted {
		t.Fatal("second point did not fork from the warm snapshot")
	}
	resB, _, _ := s.Result(stB.ID)

	// Reference: the same plan simulated start to finish.
	pB, err := mk("128K").Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRunner().Run(context.Background(), pB)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if !bytes.Equal(ref.Canonical(), resB.Canonical()) {
		t.Fatalf("warm-started result differs from full run\nfull: %s\nwarm: %s",
			ref.Canonical(), resB.Canonical())
	}
}

// TestDrainResume: a snapshot left behind by a preempted run (here handed to
// the daemon through PutCheckpoint, as the cluster handoff does) makes the
// next submission of the same spec resume mid-stream with a byte-identical
// final result.
func TestDrainResume(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{
		Config:   ConfigSpec{MediaBytes: "16M"},
		Workload: WorkloadSpec{Kind: "chase", Region: "256K", MaxSteps: 2400},
		Seed:     7, CkptEvery: 700,
	}
	p, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}

	// The "previous life" of the job: run it straight, keeping the snapshot
	// from a mid-run barrier — exactly what a preempted daemon leaves in its
	// state dir.
	var snap []byte
	io1 := &CkptIO{Sink: func(idx int, s []byte) error {
		if snap == nil {
			snap = s
		}
		return nil
	}}
	ref, err := NewRunner().RunAttemptCkpt(context.Background(), p, 0, io1)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}

	s := New(Options{Workers: 1, QueueDepth: 8, StateDir: dir})
	defer s.Shutdown(time.Second)
	if err := s.PutCheckpoint(p.Hash(), snap); err != nil {
		t.Fatalf("PutCheckpoint: %v", err)
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st, err = s.Wait(context.Background(), st.ID); err != nil || st.State != JobDone {
		t.Fatalf("resumed job: %+v err=%v", st, err)
	}
	if st.ResumedFrom == 0 {
		t.Fatal("resubmitted job did not resume from the snapshot")
	}
	res, _, _ := s.Result(st.ID)
	if !bytes.Equal(ref.Canonical(), res.Canonical()) {
		t.Fatal("resumed result differs from uninterrupted run")
	}
	// The finished job's snapshot must be gone (it must not resume again).
	if _, ok := s.CheckpointBytes(st.Hash); ok {
		t.Fatal("snapshot still present after the job finished")
	}
}

// TestDrainSummaryCheckpointed: preempting a daemon mid-job reports the job
// as checkpointed, and its snapshot survives in the state dir.
func TestDrainSummaryCheckpointed(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{
		Config:   ConfigSpec{DIMMs: 6, Interleaved: true, MediaBytes: "8M"},
		Workload: WorkloadSpec{Kind: "chase", Region: "2M", MaxSteps: 200000},
		Seed:     7, CkptEvery: 2000,
	}
	s := New(Options{Workers: 1, QueueDepth: 8, StateDir: dir})
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait for the first durable snapshot, then preempt immediately.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok := s.CheckpointBytes(st.Hash); ok {
			break
		}
		if fin, _ := s.Status(st.ID); fin.State == JobDone {
			t.Skip("job finished before a snapshot could be observed")
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot appeared within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	sum, _ := s.ShutdownDrain(0)
	if fin, _ := s.Status(st.ID); fin.State == JobDone {
		t.Skip("job finished during the drain; nothing was preempted")
	}
	if sum.Checkpointed != 1 {
		t.Fatalf("drain summary %+v: want 1 checkpointed job", sum)
	}
	if _, ok := s.CheckpointBytes(st.Hash); !ok {
		t.Fatal("preempted job's snapshot missing from the state dir")
	}
}

// TestResultsSurviveRestart: the result cache persists through
// ShutdownDrain and reloads on New, so finished work is not re-simulated.
func TestResultsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{
		Config:   ConfigSpec{MediaBytes: "16M"},
		Workload: WorkloadSpec{Kind: "seq", Bytes: "64K"},
		Seed:     7,
	}
	s1 := New(Options{Workers: 1, QueueDepth: 8, StateDir: dir})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = s1.Wait(context.Background(), st.ID); err != nil || st.State != JobDone {
		t.Fatalf("job: %+v err=%v", st, err)
	}
	s1.ShutdownDrain(time.Second)

	s2 := New(Options{Workers: 1, QueueDepth: 8, StateDir: dir})
	defer s2.Shutdown(time.Second)
	st2, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatalf("restarted daemon re-simulated a persisted result: %+v", st2)
	}
}

// TestCkptValidation pins the plan-level rejections and the hash-v4
// properties.
func TestCkptValidation(t *testing.T) {
	base := JobSpec{
		Config:   ConfigSpec{MediaBytes: "16M"},
		Workload: WorkloadSpec{Kind: "seq", Bytes: "64K"},
	}

	neg := base
	neg.CkptEvery = -1
	if _, err := neg.Compile(); err == nil {
		t.Error("negative ckpt_every accepted")
	}

	traced := base
	traced.CkptEvery = 100
	traced.Trace = true
	if _, err := traced.Compile(); err == nil {
		t.Error("ckpt_every + trace accepted")
	}

	faulty := base
	faulty.CkptEvery = 100
	faulty.Fault = &fault.Spec{PoisonRate: 0.5}
	if _, err := faulty.Compile(); err == nil {
		t.Error("ckpt_every + fault injection accepted")
	}

	warmFault := base
	warmFault.Warmup = &WorkloadSpec{Kind: "seq", Bytes: "64K"}
	warmFault.Fault = &fault.Spec{PoisonRate: 0.5}
	if _, err := warmFault.Compile(); err == nil {
		t.Error("warmup + fault injection accepted")
	}

	badWarm := base
	badWarm.Warmup = &WorkloadSpec{Kind: "nope"}
	if _, err := badWarm.Compile(); err == nil {
		t.Error("invalid warmup workload accepted")
	} else if err := func() error { _, e := badWarm.Compile(); return e }(); !strings.Contains(err.Error(), "warmup") {
		t.Errorf("warmup error not attributed: %v", err)
	}

	// Hash v4: the snapshot format version is stamped into every job hash,
	// and the barrier spacing is part of the plan identity.
	if want := fmt.Sprintf("nvmserved/5:ckpt%d:", ckpt.FormatVersion); hashVersion != want {
		t.Errorf("hashVersion %q, want %q", hashVersion, want)
	}
	p0, err := base.Compile()
	if err != nil {
		t.Fatal(err)
	}
	withCkpt := base
	withCkpt.CkptEvery = 100
	p1, err := withCkpt.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if p0.Hash() == p1.Hash() {
		t.Error("ckpt_every does not change the job hash (cache collision between barrier layouts)")
	}
}

// TestSnapshotPlanMismatch: a snapshot restores only into the exact plan that
// produced it.
func TestSnapshotPlanMismatch(t *testing.T) {
	mk := func(steps int) *Plan {
		p, err := JobSpec{
			Config:   ConfigSpec{MediaBytes: "16M"},
			Workload: WorkloadSpec{Kind: "chase", Region: "128K", MaxSteps: steps},
			Seed:     7, CkptEvery: 500,
		}.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pA, pB := mk(1600), mk(2600)

	var snap []byte
	io1 := &CkptIO{Sink: func(idx int, s []byte) error { snap = s; return nil }}
	if _, err := NewRunner().RunAttemptCkpt(context.Background(), pA, 0, io1); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}
	_, err := NewRunner().RunAttemptCkpt(context.Background(), pB, 0, &CkptIO{Resume: snap})
	if err == nil {
		t.Fatal("snapshot from plan A restored into plan B")
	}
	if !strings.Contains(err.Error(), "does not match plan") {
		t.Fatalf("unexpected mismatch error: %v", err)
	}
}

// TestPutCheckpointValidates: externally supplied snapshots are envelope-
// checked before they touch the state dir, and hashes are name-validated.
func TestPutCheckpointValidates(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Workers: 1, QueueDepth: 4, StateDir: dir})
	defer s.Shutdown(time.Second)

	good := ckpt.Seal([]byte("payload"))
	if err := s.PutCheckpoint("abc123", good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if got, ok := s.CheckpointBytes("abc123"); !ok || !bytes.Equal(got, good) {
		t.Fatal("stored snapshot not returned")
	}
	if err := s.PutCheckpoint("abc123", good[:len(good)-2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if err := s.PutCheckpoint("../escape", good); err == nil {
		t.Fatal("path-traversal hash accepted")
	}
	if _, ok := s.CheckpointBytes("../escape"); ok {
		t.Fatal("path-traversal hash readable")
	}
	// A corrupt file that appeared behind our back (torn write, bad disk) is
	// detected and discarded on load.
	path := filepath.Join(dir, "dead00.ckpt")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.CheckpointBytes("dead00"); ok {
		t.Fatal("corrupt snapshot served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot not deleted")
	}
}

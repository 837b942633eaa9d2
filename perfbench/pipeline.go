package main

import (
	"fmt"

	"repro/internal/bottleneck"
	"repro/internal/ckpt"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/vans"
	"repro/internal/workload"
)

// rebuilt is what one traced rebuild of a job yields.
type rebuilt struct {
	canonical   []byte
	accesses    int
	events      uint64
	snapshots   int
	sealedBytes int
	dump        *obs.Dump
}

// rebuild runs one job the way server.Runner does, but as a sequence of
// calls into each layer's public functions with a span around each call.
// Its canonical bytes must equal the Runner's: that is what shows the
// trace measures the same program. seal makes checkpoint barriers seal a
// snapshot of the whole system, as a Runner given a CkptIO sink does.
//
// Runner features no benchmark job uses (trace capture, fault injection,
// power-fail cuts, resume and warm start) are rejected, not rebuilt.
func rebuild(t *tracer, id int, spec server.JobSpec, seal bool) (rebuilt, error) {
	var out rebuilt
	root := t.begin("job", id, -1)
	defer t.end(root)

	sp := t.begin("server.compile", id, root)
	p, err := spec.Compile()
	var hash string
	if err == nil {
		hash = p.Hash()
	}
	t.end(sp)
	if err != nil {
		return out, err
	}
	if p.CaptureTrace || p.Fault.Enabled() {
		return out, fmt.Errorf("rebuild: trace capture and faults are not rebuilt")
	}

	sp = t.begin("workload.gen", id, root)
	main := server.WorkloadPlan{Kind: p.Kind, Region: p.Region, MaxSteps: p.MaxSteps,
		Bytes: p.Bytes, Op: p.Op, Name: p.Name, Instructions: p.Instructions, Footprint: p.Footprint}
	accs, err := accessesOf(t, id, sp, main, p.Seed)
	window := p.Window
	if p.Kind == server.KindChase {
		window = 1
	}
	warmLen := 0
	if err == nil && p.Warmup != nil {
		var warm []mem.Access
		warm, err = accessesOf(t, id, sp, *p.Warmup, p.Seed)
		warmLen = len(warm)
		accs = append(warm[:warmLen:warmLen], accs...)
	}
	t.end(sp)
	if err != nil {
		return out, err
	}

	cfg := p.VansConfig()
	o := obs.New()
	cfg.Obs = o
	sp = t.begin("vans.new", id, root)
	sys := vans.New(cfg)
	t.end(sp)

	sp = t.begin("mem.new", id, root)
	d := mem.NewDriver(sys)
	d.SetObs(o)
	t.end(sp)

	run := t.begin("mem.run", id, root)
	if p.CkptEvery > 0 || warmLen > 0 {
		pol := &mem.CkptPolicy{Every: p.CkptEvery, ForcedAt: warmLen}
		if seal && p.CkptEvery > 0 {
			total := len(accs)
			pol.Sink = func(i int) error {
				sp := t.begin("ckpt.encode", id, run)
				defer t.end(sp)
				var enc ckpt.Enc
				enc.String(hash)
				enc.U64(uint64(i))
				enc.U64(uint64(total))
				if err := d.SaveState(&enc); err != nil {
					return err
				}
				if err := sys.SaveState(&enc); err != nil {
					return err
				}
				out.snapshots++
				out.sealedBytes += len(ckpt.Seal(enc.Bytes()))
				return nil
			}
		}
		d.SetCkpt(pol)
	}
	elapsed, ok := d.RunWindowChecked(accs, window, nil)
	fenceStart := sys.Engine().Now()
	if ok {
		d.Fence()
	}
	drain := sys.Engine().Now() - fenceStart
	t.end(run)
	if !ok {
		return out, fmt.Errorf("rebuild: run stopped early: %v", d.CkptErr())
	}
	if err := d.Err(); err != nil {
		return out, err
	}

	var bytesMoved uint64
	for _, a := range accs {
		sz := uint64(a.Size)
		if sz == 0 {
			sz = mem.CacheLine
		}
		bytesMoved += sz
	}
	res := &server.Result{
		Hash:          hash,
		Accesses:      len(accs),
		BytesMoved:    bytesMoved,
		ElapsedCycles: uint64(elapsed),
		DrainCycles:   uint64(drain),
		ElapsedNs:     mem.ToNs(sys, elapsed),
		DrainNs:       mem.ToNs(sys, drain),
		AvgLatencyNs:  mem.ToNs(sys, elapsed) / float64(len(accs)),
		BandwidthGBs:  mem.BandwidthGBs(sys, bytesMoved, elapsed+drain),
	}
	sp = t.begin("vans.snapshot", id, root)
	res.Vans = sys.Snapshot()
	t.end(sp)
	sp = t.begin("obs.dump", id, root)
	res.Obs = o.Dump()
	t.end(sp)
	sp = t.begin("bottleneck.analyze", id, root)
	res.Verdict = bottleneck.Analyze(res.Obs)
	t.end(sp)
	sp = t.begin("server.encode", id, root)
	out.canonical = res.Canonical()
	t.end(sp)

	out.accesses = len(accs)
	out.events = sys.Engine().Fired()
	out.dump = res.Obs
	return out, nil
}

// accessesOf generates one workload's access stream. A cloud workload is
// captured through the CPU substrate over a capture system, as the Runner
// does.
func accessesOf(t *tracer, id, parent int, w server.WorkloadPlan, seed uint64) ([]mem.Access, error) {
	switch w.Kind {
	case server.KindChase:
		return workload.ChaseAccesses(w.Region, w.MaxSteps, seed), nil
	case server.KindSeq:
		op := mem.OpRead
		switch w.Op {
		case "store":
			op = mem.OpWrite
		case "store-nt":
			op = mem.OpWriteNT
		}
		return workload.SeqAccesses(w.Bytes, op), nil
	case server.KindCloud:
		capCfg := vans.DefaultConfig()
		capCfg.NV.Media.Capacity = 256 << 20
		sp := t.begin("vans.new", id, parent)
		col := trace.NewCollector(vans.New(capCfg))
		t.end(sp)
		sp = t.begin("cpu.new", id, parent)
		core := cpu.New(cpu.DefaultConfig(), col)
		t.end(sp)
		var cw cpu.Workload
		if b, ok := workload.SPECBenchByName(w.Name); ok {
			b.FootprintMB = float64(w.Footprint) / (1 << 20)
			cw = workload.SPEC(b, w.Instructions, seed)
		} else {
			cw = workload.Cloud(w.Name, workload.CloudOptions{
				Instructions: w.Instructions, Seed: seed, Footprint: w.Footprint})
		}
		sp = t.begin("cpu.capture", id, parent)
		core.Run(cw)
		t.end(sp)
		accs := make([]mem.Access, len(col.Records))
		for i, rec := range col.Records {
			accs[i] = rec.Access()
		}
		return accs, nil
	default:
		return nil, fmt.Errorf("rebuild: workload kind %q is not rebuilt", w.Kind)
	}
}

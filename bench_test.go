package repro

// One benchmark per paper table and figure: each regenerates the artifact
// at quick scale (structure capacities divided; every shape preserved) and
// reports the headline metric alongside the wall time. Run the paper-scale
// versions with:  go run ./cmd/experiments -all -scale paper
import (
	"context"
	"testing"

	"repro/internal/exp"
	"repro/internal/server"
)

// runExp executes one registered experiment b.N times.
func runExp(b *testing.B, id string) {
	b.Helper()
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(id, sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Series) == 0 && len(r.Tables) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

func BenchmarkFig1aBandwidth(b *testing.B)       { runExp(b, "fig1a") }
func BenchmarkFig1bPtrChasing(b *testing.B)      { runExp(b, "fig1b") }
func BenchmarkTable1Capabilities(b *testing.B)   { runExp(b, "tab1") }
func BenchmarkTable2Overview(b *testing.B)       { runExp(b, "tab2") }
func BenchmarkTable3ServerConfig(b *testing.B)   { runExp(b, "tab3") }
func BenchmarkFig3aSimAccuracy(b *testing.B)     { runExp(b, "fig3a") }
func BenchmarkFig3bRamulatorPCM(b *testing.B)    { runExp(b, "fig3b") }
func BenchmarkFig4Characterization(b *testing.B) { runExp(b, "fig4") }
func BenchmarkFig5aBufferOverflow(b *testing.B)  { runExp(b, "fig5a") }
func BenchmarkFig5bBlock256(b *testing.B)        { runExp(b, "fig5b") }
func BenchmarkFig5cReadAfterWrite(b *testing.B)  { runExp(b, "fig5c") }
func BenchmarkFig5dTLBMPKI(b *testing.B)         { runExp(b, "fig5d") }
func BenchmarkFig6aReadAmp(b *testing.B)         { runExp(b, "fig6a") }
func BenchmarkFig6bWriteAmp(b *testing.B)        { runExp(b, "fig6b") }
func BenchmarkFig7aInterleave(b *testing.B)      { runExp(b, "fig7a") }
func BenchmarkFig7bTailLatency(b *testing.B)     { runExp(b, "fig7b") }
func BenchmarkFig7cWearBlock(b *testing.B)       { runExp(b, "fig7c") }
func BenchmarkFig7dOverwriteTLB(b *testing.B)    { runExp(b, "fig7d") }
func BenchmarkFig9aValidation(b *testing.B)      { runExp(b, "fig9a") }
func BenchmarkFig9bInterleaved(b *testing.B)     { runExp(b, "fig9b") }
func BenchmarkFig9cRMWAmp(b *testing.B)          { runExp(b, "fig9c") }
func BenchmarkFig9dTailValidation(b *testing.B)  { runExp(b, "fig9d") }
func BenchmarkFig9eAccuracy(b *testing.B)        { runExp(b, "fig9e") }
func BenchmarkFig10aCapacity(b *testing.B)       { runExp(b, "fig10a") }
func BenchmarkFig10bDIMMCount(b *testing.B)      { runExp(b, "fig10b") }
func BenchmarkTable4SPECSet(b *testing.B)        { runExp(b, "tab4") }
func BenchmarkTable5SimConfig(b *testing.B)      { runExp(b, "tab5") }
func BenchmarkFig11aIPC(b *testing.B)            { runExp(b, "fig11a") }
func BenchmarkFig11bLLCMiss(b *testing.B)        { runExp(b, "fig11b") }
func BenchmarkFig11cSpeedup(b *testing.B)        { runExp(b, "fig11c") }
func BenchmarkFig11dAccuracy(b *testing.B)       { runExp(b, "fig11d") }
func BenchmarkFig12aRedis(b *testing.B)          { runExp(b, "fig12a") }
func BenchmarkFig12bYCSB(b *testing.B)           { runExp(b, "fig12b") }
func BenchmarkFig13dOptSpeedup(b *testing.B)     { runExp(b, "fig13d") }
func BenchmarkFig13eOptTLB(b *testing.B)         { runExp(b, "fig13e") }

// Ablations (beyond the paper: design-choice isolation per DESIGN.md).
func BenchmarkAblWritePolicy(b *testing.B) { runExp(b, "abl-wpolicy") }
func BenchmarkAblLineFill(b *testing.B)    { runExp(b, "abl-linefill") }
func BenchmarkAblScheduling(b *testing.B)  { runExp(b, "abl-sched") }
func BenchmarkAblInterleave(b *testing.B)  { runExp(b, "abl-ileave") }
func BenchmarkAblMLP(b *testing.B)         { runExp(b, "abl-mlp") }
func BenchmarkAblLSQDepth(b *testing.B)    { runExp(b, "abl-lsq") }
func BenchmarkOtherNVRAM(b *testing.B)     { runExp(b, "other-nvram") }

// Thread-scaling contention study.
func BenchmarkScaling(b *testing.B) { runExp(b, "scaling") }

// BenchmarkServedChase runs one job of perfbench's chase-read shape, a
// dependent chase over 64 MB (four times the AIT buffer) for 20,000 steps
// with seed 3, through server.Runner, the path `vans -json` and nvmserved
// share. `make profile-figure FIG=ServedChase` profiles the AIT-miss read
// path as that workload runs it.
func BenchmarkServedChase(b *testing.B) {
	spec := server.JobSpec{
		Workload: server.WorkloadSpec{Kind: server.KindChase, Region: "64M", MaxSteps: 20000},
		Seed:     3,
	}
	p, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	rn := server.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rn.Run(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if res.Accesses != 20000 {
			b.Fatalf("chase ran %d accesses, want 20000", res.Accesses)
		}
	}
}

package exp

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// testScale trims QuickScale further so the whole suite stays fast.
func testScale() Scale {
	sc := QuickScale()
	sc.Regions = analysis.LogSpace(256, 1<<20, 2)
	sc.BlockSizes = analysis.LogSpace(64, 4<<10, 2)
	sc.Opt.MaxSteps = 2000
	sc.OverwriteIters = 250
	sc.Instructions = 25000
	sc.CloudFootprint = 4 << 20
	return sc
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1a", "fig1b", "tab1", "tab2", "tab3", "fig3a", "fig3b",
		"fig4", "fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b",
		"fig7a", "fig7b", "fig7c", "fig7d",
		"fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig10a", "fig10b",
		"tab4", "tab5", "fig11a", "fig11b", "fig11c", "fig11d",
		"fig12a", "fig12b", "fig13d", "fig13e",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, err := Run("nonsense", testScale()); err == nil {
		t.Error("unknown id did not error")
	}
}

func mustRun(t *testing.T, id string) *Result {
	t.Helper()
	r, err := Run(id, testScale())
	if err != nil {
		t.Fatal(err)
	}
	if r.String() == "" {
		t.Fatal("empty result")
	}
	return r
}

// cell parses a numeric table cell.
func cell(t *testing.T, tab *analysis.Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %d,%d = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestFig1aBandwidthOrdering(t *testing.T) {
	r := mustRun(t, "fig1a")
	tab := r.Tables[0]
	// Columns: system, load, store, store-clwb, store-nt.
	pmepStore, pmepNT := cell(t, tab, 0, 2), cell(t, tab, 0, 4)
	optStore, optNT := cell(t, tab, 1, 2), cell(t, tab, 1, 4)
	optLoad := cell(t, tab, 1, 1)
	if pmepStore <= pmepNT {
		t.Errorf("PMEP store (%.1f) should beat store-nt (%.1f)", pmepStore, pmepNT)
	}
	if optNT <= optStore {
		t.Errorf("Optane store-nt (%.1f) should beat store (%.1f)", optNT, optStore)
	}
	if optLoad <= optNT {
		t.Errorf("Optane load (%.1f) should beat store-nt (%.1f)", optLoad, optNT)
	}
}

func TestFig1bShapes(t *testing.T) {
	r := mustRun(t, "fig1b")
	pm, op := r.Series[0], r.Series[1]
	if ks := analysis.Knees(pm, 1.15); len(ks) != 0 {
		t.Errorf("PMEP curve has knees %v, want flat", ks)
	}
	if ks := analysis.Knees(op, 1.15); len(ks) < 2 {
		t.Errorf("Optane curve has %d knees, want >=2; curve\n%s", len(ks), op)
	}
}

func TestFig3aConventionalSimulatorsInaccurate(t *testing.T) {
	r := mustRun(t, "fig3a")
	tab := r.Tables[0]
	for i := range tab.Rows {
		mean := cell(t, tab, i, 5)
		if mean > 0.92 {
			t.Errorf("%s mean accuracy %.2f suspiciously high", tab.Rows[i][0], mean)
		}
	}
}

func TestFig3bPCMFlatOptaneRises(t *testing.T) {
	r := mustRun(t, "fig3b")
	pcm, op := r.Series[0], r.Series[1]
	pcmRatio := pcm.Y[pcm.Len()-1] / pcm.Y[0]
	opRatio := op.Y[op.Len()-1] / op.Y[0]
	if pcmRatio > 1.35 {
		t.Errorf("PCM curve rises %.2fx, want flat", pcmRatio)
	}
	if opRatio < 1.3 {
		t.Errorf("Optane curve rises only %.2fx, want clearly rising", opRatio)
	}
}

func TestFig5aKnees(t *testing.T) {
	r := mustRun(t, "fig5a")
	ld, st := r.Series[0], r.Series[1]
	if ks := analysis.LargestKnees(ld, 2); len(ks) != 2 {
		t.Errorf("load knees = %v, want 2 (RMW and AIT)", ks)
	}
	if ks := analysis.Knees(st, 1.2); len(ks) < 1 {
		t.Errorf("store curve has no knee; LSQ overflow missing")
	}
}

func TestFig5cRaWConverges(t *testing.T) {
	r := mustRun(t, "fig5c")
	raw, rpw := r.Series[0], r.Series[1]
	smallRatio := raw.Y[0] / rpw.Y[0]
	largeRatio := raw.Y[raw.Len()-1] / rpw.Y[rpw.Len()-1]
	if smallRatio < 1.1 {
		t.Errorf("RaW/R+W at small region = %.2f, want > 1.1", smallRatio)
	}
	if largeRatio > smallRatio {
		t.Errorf("RaW/R+W does not converge: %.2f -> %.2f", smallRatio, largeRatio)
	}
}

func TestFig6aScoresFall(t *testing.T) {
	r := mustRun(t, "fig6a")
	rmw := r.Series[0]
	if rmw.Y[0] < 1.3 {
		t.Errorf("RMW score at 64B = %.2f, want amplified", rmw.Y[0])
	}
	last := rmw.Y[rmw.Len()-1]
	if last > rmw.Y[0]*0.8 {
		t.Errorf("RMW score does not fall: %.2f -> %.2f", rmw.Y[0], last)
	}
}

func TestFig7aInterleavingDiverges(t *testing.T) {
	r := mustRun(t, "fig7a")
	one, six := r.Series[0], r.Series[1]
	ratioSmall := one.YAt(1024) / six.YAt(1024)
	ratioLarge := one.YAt(16<<10) / six.YAt(16<<10)
	if ratioSmall > 1.6 {
		t.Errorf("curves differ %.2fx already at 1KB, want similar below the span", ratioSmall)
	}
	if ratioLarge < 1.25 {
		t.Errorf("6-DIMM only %.2fx faster at 16KB, want divergence", ratioLarge)
	}
	if ratioLarge <= ratioSmall {
		t.Errorf("interleaving advantage not growing: %.2f -> %.2f", ratioSmall, ratioLarge)
	}
}

func TestFig7bTails(t *testing.T) {
	r := mustRun(t, "fig7b")
	s := r.Series[0]
	ts := analysis.Tails(s.Y, 8)
	if ts.Tails == 0 {
		t.Fatal("no tails in the overwrite test")
	}
	if ts.MeanTail < 10*ts.MeanNormal {
		t.Errorf("tail %.0f not >> normal %.0f", ts.MeanTail, ts.MeanNormal)
	}
	interval := ts.MeanInterval()
	if interval < float64(testScale().WearThreshold)/2 ||
		interval > float64(testScale().WearThreshold)*2 {
		t.Errorf("tail interval %.0f not near threshold %d", interval, testScale().WearThreshold)
	}
}

func TestFig7cTailRateDrops(t *testing.T) {
	r := mustRun(t, "fig7c")
	s := r.Series[0]
	if s.Y[0] <= 0 {
		t.Fatal("no tails at the smallest region")
	}
	last := s.Y[s.Len()-1]
	if last > s.Y[0]/3 {
		t.Errorf("tail rate does not collapse: %.4f -> %.4f", s.Y[0], last)
	}
}

func TestFig9aAccuracy(t *testing.T) {
	r := mustRun(t, "fig9a")
	// Series: Optane-ld, Optane-st, VANS-ld, VANS-st.
	oLd, vLd := r.Series[0], r.Series[2]
	acc := analysis.MeanAccuracy(vLd.Y, oLd.Y)
	if acc < 0.90 || acc > 0.94 {
		t.Errorf("load validation accuracy %.4f, want within [0.90, 0.94] (EXPERIMENTS.md: 0.92)", acc)
	}
	// Both curves must show the same knee structure.
	if k1, k2 := len(analysis.LargestKnees(oLd, 2)), len(analysis.LargestKnees(vLd, 2)); k1 != k2 {
		t.Errorf("knee counts differ: Optane %d vs VANS %d", k1, k2)
	}
}

func TestFig9eMeanAccuracy(t *testing.T) {
	r := mustRun(t, "fig9e")
	tab := r.Tables[0]
	mean := cell(t, tab, len(tab.Rows)-1, 1)
	if mean < 0.755 || mean > 0.795 {
		t.Errorf("overall accuracy %.3f, want within [0.755, 0.795] (test scale: 0.775; EXPERIMENTS.md: 0.773; paper: 0.865)", mean)
	}
}

func TestFig10aCapacityInsensitive(t *testing.T) {
	r := mustRun(t, "fig10a")
	base := r.Series[0]
	for _, s := range r.Series[1:] {
		if acc := analysis.MeanAccuracy(s.Y, base.Y); acc < 0.9 {
			t.Errorf("capacity %s deviates: accuracy %.2f", s.Name, acc)
		}
	}
}

func TestFig10bStoreImprovesWithDIMMs(t *testing.T) {
	r := mustRun(t, "fig10b")
	// Series pairs: ld-1, st-1, ld-2, st-2, ld-4, st-4, ld-6, st-6.
	st1 := r.Series[1]
	st6 := r.Series[7]
	big := st1.X[st1.Len()-1]
	if st6.YAt(big) >= st1.YAt(big) {
		t.Errorf("6-DIMM store latency (%.0f) not below 1-DIMM (%.0f) at %.0fB",
			st6.YAt(big), st1.YAt(big), big)
	}
}

// TestFig11aAccuracyBand bands the IPC accuracies around what the test
// scale's 25,000 instructions produce: rows 0.79-0.85, geomean 0.83.
// EXPERIMENTS.md's 94.5% geomean is from the quick scale's longer runs.
func TestFig11aAccuracyBand(t *testing.T) {
	r := mustRun(t, "fig11a")
	tab := r.Tables[0]
	logSum := 0.0
	for i := range tab.Rows {
		acc := cell(t, tab, i, 3)
		if acc < 0.75 || acc > 0.90 {
			t.Errorf("%s IPC accuracy %.2f, want within [0.75, 0.90]", tab.Rows[i][0], acc)
		}
		logSum += math.Log(acc)
	}
	if g := math.Exp(logSum / float64(len(tab.Rows))); g < 0.81 || g > 0.85 {
		t.Errorf("IPC accuracy geomean %.3f, want within [0.81, 0.85]", g)
	}
}

func TestFig11cSpeedupsBelowOne(t *testing.T) {
	r := mustRun(t, "fig11c")
	tab := r.Tables[0]
	for i := range tab.Rows {
		for col := 1; col <= 3; col++ {
			sp := cell(t, tab, i, col)
			if sp <= 0 || sp > 1.05 {
				t.Errorf("%s col %d speedup %.2f out of (0,1.05]", tab.Rows[i][0], col, sp)
			}
		}
	}
}

func TestFig11dVANSBeatsRamulator(t *testing.T) {
	r := mustRun(t, "fig11d")
	tab := r.Tables[0]
	vansAcc := cell(t, tab, 0, 1)
	ramAcc := cell(t, tab, 1, 1)
	if vansAcc <= ramAcc {
		t.Errorf("VANS accuracy %.2f not above Ramulator %.2f", vansAcc, ramAcc)
	}
	// The test scale reads VANS 0.783 and Ramulator 0.310 (EXPERIMENTS.md:
	// 0.717 and 0.325 at quick scale).
	if vansAcc < 0.76 || vansAcc > 0.81 {
		t.Errorf("VANS accuracy %.3f, want within [0.76, 0.81]", vansAcc)
	}
	if ramAcc < 0.29 || ramAcc > 0.33 {
		t.Errorf("Ramulator accuracy %.3f, want within [0.29, 0.33]", ramAcc)
	}
}

func TestFig12aReadDominates(t *testing.T) {
	r := mustRun(t, "fig12a")
	tab := r.Tables[0]
	readCPI := cell(t, tab, 0, 1)
	restCPI := cell(t, tab, 0, 2)
	if readCPI < 2*restCPI {
		t.Errorf("read CPI %.2f not >> rest %.2f", readCPI, restCPI)
	}
}

func TestFig12bTopLinesConcentrateWear(t *testing.T) {
	r := mustRun(t, "fig12b")
	tab := r.Tables[0]
	topW := cell(t, tab, 0, 1)
	restW := cell(t, tab, 0, 2)
	if topW <= 0 {
		t.Fatal("no writes attributed to top lines")
	}
	// Ten lines out of thousands absorbing a sizeable share is the point.
	if topW < restW/20 {
		t.Errorf("top-10 writes %.0f negligible vs rest %.0f", topW, restW)
	}
}

func TestFig13dOptimizationsHelp(t *testing.T) {
	r := mustRun(t, "fig13d")
	tab := r.Tables[0]
	// LinkedList (last row) must benefit from Pre-translation.
	last := len(tab.Rows) - 1
	pt := cell(t, tab, last, 2)
	if pt < 1.0 {
		t.Errorf("LinkedList pre-translation speedup %.3f < 1", pt)
	}
	// YCSB (row 1) must benefit from the Lazy cache.
	lz := cell(t, tab, 1, 1)
	if lz < 1.0 {
		t.Errorf("YCSB lazy-cache speedup %.3f < 1", lz)
	}
}

func TestFig13eTLBReduced(t *testing.T) {
	r := mustRun(t, "fig13e")
	tab := r.Tables[0]
	// LinkedList again: heavy chasing, normalized MPKI < 1.
	last := len(tab.Rows) - 1
	norm := cell(t, tab, last, 3)
	if norm >= 1.0 {
		t.Errorf("LinkedList normalized TLB MPKI %.2f, want < 1", norm)
	}
}

func TestTables(t *testing.T) {
	for _, id := range []string{"tab1", "tab2", "tab3", "tab4", "tab5"} {
		r := mustRun(t, id)
		if len(r.Tables) == 0 || len(r.Tables[0].Rows) == 0 {
			t.Errorf("%s empty", id)
		}
	}
}

func TestFig4RecoversParameters(t *testing.T) {
	r := mustRun(t, "fig4")
	tab := r.Tables[0]
	if len(tab.Rows) < 8 {
		t.Fatalf("characterization table rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[2] == "-" && row[0] != "AIT line size" {
			t.Errorf("parameter %q not recovered", row[0])
		}
	}
}

func TestRemainingExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig5b", "fig5d", "fig6b", "fig7d", "fig9b", "fig9c", "fig9d", "fig11b"} {
		r := mustRun(t, id)
		if len(r.Series) == 0 && len(r.Tables) == 0 {
			t.Errorf("%s produced nothing", id)
		}
	}
}

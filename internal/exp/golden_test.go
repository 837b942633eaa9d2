package exp

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// goldenPath holds one line per registered experiment, recorded on
// linux/amd64 at TestParallelByteIdentical's trimmed scale:
//
//	<id> text=<sha256 of Result.String()> regime=<r> media_r=<n> media_w=<n> migrations=<n> | events=<n> peak_pending=<n>
//
// The part before " | " is the text part: what a figure says. It must never
// move without a justification in CHANGES.md. The part after it is the
// engine part: how many events the simulation fired and its peak queue
// depth, which engine-cost work is expected to move; every delta is listed
// in CHANGES.md. There is deliberately no update flag: each edit of the file
// is made by hand, so it shows up in review.
const goldenPath = "testdata/golden.txt"

// goldenSep splits a golden line into its text and engine parts.
const goldenSep = " | "

// goldenLine renders one outcome's golden record.
func goldenLine(o Outcome) string {
	regime := "none"
	if o.Verdict != nil {
		regime = o.Verdict.Regime
	}
	g := o.Digest
	return fmt.Sprintf("%s text=%x regime=%s media_r=%d media_w=%d migrations=%d%sevents=%d peak_pending=%d",
		o.ID, sha256.Sum256([]byte(o.Res.String())), regime,
		g.MediaReads, g.MediaWrites, g.Migrations, goldenSep, g.EventsFired, g.PeakPending)
}

// readGolden loads a golden file keyed by each line's first field.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, _, _ := strings.Cut(line, " ")
		if _, dup := lines[id]; dup {
			t.Fatalf("golden: duplicate line for %s", id)
		}
		lines[id] = line
	}
	return lines
}

// checkGolden compares the sequential outcomes against goldenPath. A moved
// text part, a moved engine part, a missing line and a stale line all fail,
// each printing the line the file should hold for the current code.
func checkGolden(t *testing.T, outs []Outcome) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which moves the last
		// digits of rendered floats.
		t.Logf("golden: recorded on amd64, not comparing on %s", runtime.GOARCH)
		return
	}
	want := readGolden(t, goldenPath)
	for _, o := range outs {
		if o.Err != nil {
			continue // reported by the caller
		}
		got := goldenLine(o)
		rec, ok := want[o.ID]
		delete(want, o.ID)
		switch {
		case !ok:
			t.Errorf("golden: no line for %s; expected line:\n%s", o.ID, got)
		case rec == got:
		default:
			part := "engine part (events, peak_pending)"
			if recText, _, _ := strings.Cut(rec, goldenSep); !strings.HasPrefix(got, recText+goldenSep) {
				part = "text part"
			}
			t.Errorf("golden: %s moved in its %s\nrecorded: %s\nexpected: %s", o.ID, part, rec, got)
		}
	}
	for id, rec := range want {
		t.Errorf("golden: stale line for unregistered experiment %s:\n%s", id, rec)
	}
}

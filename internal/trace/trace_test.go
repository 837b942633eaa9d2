package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func sampleRecords() []Record {
	return []Record{
		{Cycle: 0, Op: mem.OpRead, Addr: 0x1000, Size: 64},
		{Cycle: 10, Op: mem.OpWrite, Addr: 0x2040, Size: 64},
		{Cycle: 12, Op: mem.OpWriteNT, Addr: 0xdeadbeef, Size: 64},
		{Cycle: 90, Op: mem.OpClwb, Addr: 0x2040, Size: 64},
		{Cycle: 91, Op: mem.OpFence, Addr: 0, Size: 0},
	}
}

func TestTextRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestParseRecordSkipsCommentsAndBlanks(t *testing.T) {
	for _, line := range []string{"", "   ", "# comment", "#"} {
		_, ok, err := ParseRecord(line)
		if ok || err != nil {
			t.Fatalf("ParseRecord(%q) = ok=%v err=%v", line, ok, err)
		}
	}
}

func TestParseRecordAliases(t *testing.T) {
	rec, ok, err := ParseRecord("5 read 0x40 64")
	if err != nil || !ok {
		t.Fatal(err)
	}
	if rec.Op != mem.OpRead {
		t.Fatalf("alias read -> %v", rec.Op)
	}
	rec, _, err = ParseRecord("5 w 40 64") // hex without 0x prefix
	if err != nil {
		t.Fatal(err)
	}
	if rec.Addr != 0x40 || rec.Op != mem.OpWrite {
		t.Fatalf("got %+v", rec)
	}
}

func TestParseRecordErrors(t *testing.T) {
	bad := []string{
		"1 load 0x40",            // too few fields
		"x load 0x40 64",         // bad cycle
		"1 bogus 0x40 64",        // bad op
		"1 load 0xzz 64",         // bad addr
		"1 load 0x40 notanumber", // bad size
	}
	for _, line := range bad {
		if _, _, err := ParseRecord(line); err == nil {
			t.Errorf("ParseRecord(%q) succeeded, want error", line)
		}
	}
}

func TestReaderReportsLineNumber(t *testing.T) {
	r := NewReader(strings.NewReader("0 load 0x0 64\nbogus line here x\n"))
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line 2 context", err)
	}
}

// chanSystem is a trivial always-accept system for Collector tests.
type chanSystem struct{ eng *sim.Engine }

func (c *chanSystem) Engine() *sim.Engine    { return c.eng }
func (c *chanSystem) CyclesPerNano() float64 { return 1 }
func (c *chanSystem) Drained() bool          { return true }
func (c *chanSystem) Submit(r *mem.Request) bool {
	r.Issued = c.eng.Now()
	c.eng.After(1, func() { r.Complete(c.eng.Now()) })
	return true
}

func TestCollectorRecords(t *testing.T) {
	inner := &chanSystem{eng: sim.NewEngine()}
	col := NewCollector(inner)
	d := mem.NewDriver(col)
	d.RunChain([]mem.Access{
		{Op: mem.OpRead, Addr: 0x40, Size: 64},
		{Op: mem.OpWrite, Addr: 0x80, Size: 64},
	})
	if len(col.Records) != 2 {
		t.Fatalf("collected %d records, want 2", len(col.Records))
	}
	if col.Records[0].Op != mem.OpRead || col.Records[0].Addr != 0x40 {
		t.Fatalf("record 0 = %+v", col.Records[0])
	}
	if col.Records[1].Cycle <= col.Records[0].Cycle {
		t.Fatal("collector timestamps not increasing for chained accesses")
	}
}

func TestRecordAccess(t *testing.T) {
	r := Record{Cycle: 9, Op: mem.OpWrite, Addr: 0x100, Size: 64}
	a := r.Access()
	if a.Op != mem.OpWrite || a.Addr != 0x100 || a.Size != 64 {
		t.Fatalf("Access = %+v", a)
	}
}

func TestReadAllEOFOnEmpty(t *testing.T) {
	recs, err := NewReader(strings.NewReader("# only a comment\n")).ReadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("ReadAll = %v, %v", recs, err)
	}
	_, err = NewReader(strings.NewReader("")).Read()
	if err != io.EOF {
		t.Fatalf("Read on empty = %v, want EOF", err)
	}
}

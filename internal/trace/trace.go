// Package trace defines the memory trace format used to drive the simulators
// in "trace mode" (the way the paper feeds LENS-captured traces into VANS):
// one human-readable text record per line.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Record is one trace entry: an operation at a cycle timestamp. Cycle is the
// earliest cycle the request may issue (0 = as fast as possible).
type Record struct {
	Cycle sim.Cycle
	Op    mem.Op
	Addr  uint64
	Size  uint32
}

// Access converts the record to a driver access (dropping the timestamp).
func (r Record) Access() mem.Access {
	return mem.Access{Op: r.Op, Addr: r.Addr, Size: r.Size}
}

// String renders the record in the text format: "<cycle> <op> <hexaddr> <size>".
func (r Record) String() string {
	return fmt.Sprintf("%d %s 0x%x %d", r.Cycle, r.Op, r.Addr, r.Size)
}

var opByName = map[string]mem.Op{
	"load": mem.OpRead, "store": mem.OpWrite, "store-nt": mem.OpWriteNT,
	"clwb": mem.OpClwb, "mfence": mem.OpFence,
	// Aliases accepted on input for convenience.
	"read": mem.OpRead, "write": mem.OpWrite, "r": mem.OpRead, "w": mem.OpWrite,
}

// ParseRecord parses one text-format line. Blank lines and lines starting
// with '#' yield ok=false with a nil error.
func ParseRecord(line string) (rec Record, ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Record{}, false, nil
	}
	fields := strings.Fields(line)
	if len(fields) != 4 {
		return Record{}, false, fmt.Errorf("trace: want 4 fields, got %d in %q", len(fields), line)
	}
	cyc, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return Record{}, false, fmt.Errorf("trace: bad cycle %q: %v", fields[0], err)
	}
	op, okOp := opByName[fields[1]]
	if !okOp {
		return Record{}, false, fmt.Errorf("trace: unknown op %q", fields[1])
	}
	addr, err := strconv.ParseUint(strings.TrimPrefix(fields[2], "0x"), 16, 64)
	if err != nil {
		return Record{}, false, fmt.Errorf("trace: bad addr %q: %v", fields[2], err)
	}
	size, err := strconv.ParseUint(fields[3], 10, 32)
	if err != nil {
		return Record{}, false, fmt.Errorf("trace: bad size %q: %v", fields[3], err)
	}
	return Record{Cycle: sim.Cycle(cyc), Op: op, Addr: addr, Size: uint32(size)}, true, nil
}

// Writer emits records in text format.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a text-format trace writer.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one record.
func (tw *Writer) Write(rec Record) error {
	if tw.err != nil {
		return tw.err
	}
	_, tw.err = fmt.Fprintln(tw.w, rec.String())
	return tw.err
}

// Flush flushes buffered output.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.w.Flush()
}

// Reader parses text-format records.
type Reader struct {
	s    *bufio.Scanner
	line int
}

// NewReader returns a text-format trace reader.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &Reader{s: s}
}

// Read returns the next record, or io.EOF when the trace is exhausted.
func (tr *Reader) Read() (Record, error) {
	for tr.s.Scan() {
		tr.line++
		rec, ok, err := ParseRecord(tr.s.Text())
		if err != nil {
			return Record{}, fmt.Errorf("line %d: %w", tr.line, err)
		}
		if ok {
			return rec, nil
		}
	}
	if err := tr.s.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// ReadAccesses parses an entire text-format trace from r into driver
// accesses, dropping timestamps. This is the common replay entry point of
// cmd/vans and nvmserved inline-trace jobs.
func ReadAccesses(r io.Reader) ([]mem.Access, error) {
	recs, err := NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	accs := make([]mem.Access, len(recs))
	for i, rec := range recs {
		accs[i] = rec.Access()
	}
	return accs, nil
}

// ReadAll collects every remaining record.
func (tr *Reader) ReadAll() ([]Record, error) {
	var recs []Record
	for {
		rec, err := tr.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// Collector is a sink that records every request submitted through it; it
// wraps a System so workloads can be traced transparently.
type Collector struct {
	Records []Record
	inner   mem.System
}

// NewCollector wraps sys, capturing each submitted request.
func NewCollector(sys mem.System) *Collector { return &Collector{inner: sys} }

// Engine implements mem.System.
func (c *Collector) Engine() *sim.Engine { return c.inner.Engine() }

// CyclesPerNano implements mem.System.
func (c *Collector) CyclesPerNano() float64 { return c.inner.CyclesPerNano() }

// Drained implements mem.System.
func (c *Collector) Drained() bool { return c.inner.Drained() }

// Submit records the request if accepted by the wrapped system.
func (c *Collector) Submit(r *mem.Request) bool {
	if !c.inner.Submit(r) {
		return false
	}
	c.Records = append(c.Records, Record{
		Cycle: c.inner.Engine().Now(), Op: r.Op, Addr: r.Addr, Size: r.Size})
	return true
}

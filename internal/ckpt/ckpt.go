// Package ckpt is the exact-state snapshot substrate: a versioned,
// checksummed binary envelope plus sticky-error encode/decode primitives the
// simulator components serialize themselves with.
//
// Layout of a sealed snapshot:
//
//	offset  size  field
//	0       6     magic "NVCKPT"
//	6       2     format version (little-endian uint16)
//	8       n     payload (component-defined, see DESIGN.md §12)
//	8+n     4     CRC32 (IEEE) over bytes [0, 8+n)
//
// All integers are little-endian. The payload field order is fixed by the
// writers (each component's SaveState documents its order); the format
// version covers payload layout changes, so any reordering bumps
// FormatVersion and old snapshots are rejected with ErrVersion rather than
// misread.
//
// The decoder is sticky-error and never panics on hostile input: truncated,
// bit-flipped, and version-bumped snapshots surface as the typed errors
// below (fuzzed by FuzzCheckpointDecode).
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// FormatVersion is the current snapshot payload layout version. Bump it on
// any incompatible change to a SaveState field order; it is also stamped
// into the nvmserved canonical job hash so cached results and snapshots from
// different format eras can never satisfy each other.
const FormatVersion uint16 = 3

// magic identifies a sealed snapshot.
var magic = [6]byte{'N', 'V', 'C', 'K', 'P', 'T'}

// headerLen is magic + version; trailerLen is the CRC32.
const (
	headerLen  = 8
	trailerLen = 4
)

// header opens every sealed snapshot; headerSum is its CRC32, where the
// envelope's checksum starts.
var (
	header    = binary.LittleEndian.AppendUint16(magic[:], FormatVersion)
	headerSum = crc32.ChecksumIEEE(header)
)

// Typed decode errors. Every failure mode of Open/Dec maps onto exactly one
// of these (possibly wrapped with detail), so callers can branch on class
// with errors.Is.
var (
	// ErrTruncated: the input ends before a complete field or envelope.
	ErrTruncated = errors.New("ckpt: truncated snapshot")
	// ErrChecksum: the envelope CRC32 does not match (bit flip, torn write).
	ErrChecksum = errors.New("ckpt: checksum mismatch")
	// ErrVersion: the snapshot was written by a different format version.
	ErrVersion = errors.New("ckpt: snapshot format version mismatch")
	// ErrCorrupt: structurally invalid content inside a checksummed payload
	// (bad magic, impossible field value, trailing garbage).
	ErrCorrupt = errors.New("ckpt: corrupt snapshot")
)

// Seal wraps payload in the versioned, checksummed envelope. The checksum
// runs over the header and then the payload where it lies, and bytes.Join
// builds the envelope in one allocation that is not zeroed first: every
// byte of it is written, and a snapshot is megabytes.
func Seal(payload []byte) []byte {
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Update(headerSum, crc32.IEEETable, payload))
	return bytes.Join([][]byte{header, payload, trailer[:]}, nil)
}

// Open verifies the envelope of a sealed snapshot and returns its payload.
// The returned slice aliases data.
func Open(data []byte) ([]byte, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d",
			ErrTruncated, len(data), headerLen+trailerLen)
	}
	if [6]byte(data[:6]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	// Checksum before version: a bit flip in the version field should read
	// as corruption, not as a innocently mismatched version.
	body := data[:len(data)-trailerLen]
	want := binary.LittleEndian.Uint32(data[len(data)-trailerLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: crc32 %08x, want %08x", ErrChecksum, got, want)
	}
	if v := binary.LittleEndian.Uint16(data[6:8]); v != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot v%d, this build reads v%d",
			ErrVersion, v, FormatVersion)
	}
	return body[headerLen:], nil
}

// Enc accumulates a payload. The zero value is ready to use.
type Enc struct {
	buf []byte
}

// Bytes returns the accumulated payload. It aliases the encoder's buffer
// until the next Reset.
func (e *Enc) Bytes() []byte { return e.buf }

// Reset empties the payload but keeps its buffer, so an encoder reused
// across snapshots of one run grows only once.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Len returns the accumulated payload length.
func (e *Enc) Len() int { return len(e.buf) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U16 appends a little-endian uint16.
func (e *Enc) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// Bool appends one byte (0 or 1).
func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// F64 appends a float64 as its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// BytesField appends a u32 length prefix followed by the raw bytes.
func (e *Enc) BytesField(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends s as a length-prefixed byte field.
func (e *Enc) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// U64s appends a u32 count prefix followed by each element.
func (e *Enc) U64s(vs []uint64) {
	e.U32(uint32(len(vs)))
	e.U64Array(vs)
}

// U64Array appends each element of vs with no count prefix, for arrays
// whose length the reader knows (a paged store's fixed-size leaves). The
// buffer grows at most once for the whole array.
func (e *Enc) U64Array(vs []uint64) {
	n := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(vs))[:n+8*len(vs)]
	b := e.buf[n:]
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b, v)
		b = b[8:]
	}
}

// Dec reads a payload with a sticky error: after the first failure every
// subsequent read returns the zero value and Err() reports the failure, so
// component LoadState code can decode straight-line and check once.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Err returns the sticky decode error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns the unread byte count.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Close verifies the payload was consumed exactly.
func (d *Dec) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return d.err
}

// fail records the first error.
func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n bytes, or nil with ErrTruncated.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail(fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrTruncated, n, d.off, len(d.buf)-d.off))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U16 reads a little-endian uint16.
func (d *Dec) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// Bool reads one byte; any value other than 0 or 1 is corruption.
func (d *Dec) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: bool byte 0x%02x", ErrCorrupt, b[0]))
		return false
	}
}

// F64 reads a float64 from its IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// BytesField reads a length-prefixed byte field. The length is bounded by
// the remaining input, so hostile prefixes cannot force huge allocations.
func (d *Dec) BytesField() []byte {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// U64s reads a count-prefixed uint64 slice.
func (d *Dec) U64s() []uint64 {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	// Each element takes 8 bytes; reject counts the input cannot hold
	// before allocating.
	if d.Remaining() < n*8 {
		d.fail(fmt.Errorf("%w: u64 slice of %d elements, %d bytes remain",
			ErrTruncated, n, d.Remaining()))
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// Count reads a u32 element count for a sequence whose elements occupy at
// least minElemBytes each, rejecting counts the remaining input cannot hold.
func (d *Dec) Count(minElemBytes int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n < 0 || d.Remaining() < n*minElemBytes {
		d.fail(fmt.Errorf("%w: sequence of %d elements (>=%dB each), %d bytes remain",
			ErrTruncated, n, minElemBytes, d.Remaining()))
		return 0
	}
	return n
}

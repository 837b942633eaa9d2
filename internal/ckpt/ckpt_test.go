package ckpt

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
)

// samplePayload exercises every primitive once in a fixed order.
func samplePayload() []byte {
	var e Enc
	e.U64(0xdeadbeefcafef00d)
	e.U32(42)
	e.U16(7)
	e.Bool(true)
	e.Bool(false)
	e.F64(3.25)
	e.BytesField([]byte{1, 2, 3})
	e.String("nvm")
	e.U64s([]uint64{10, 20, 30})
	return e.Bytes()
}

func TestRoundTrip(t *testing.T) {
	sealed := Seal(samplePayload())
	payload, err := Open(sealed)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	d := NewDec(payload)
	if v := d.U64(); v != 0xdeadbeefcafef00d {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.U32(); v != 42 {
		t.Errorf("U32 = %d", v)
	}
	if v := d.U16(); v != 7 {
		t.Errorf("U16 = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool sequence wrong")
	}
	if v := d.F64(); v != 3.25 {
		t.Errorf("F64 = %v", v)
	}
	if b := d.BytesField(); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Errorf("BytesField = %v", b)
	}
	if s := d.String(); s != "nvm" {
		t.Errorf("String = %q", s)
	}
	vs := d.U64s()
	if len(vs) != 3 || vs[0] != 10 || vs[2] != 30 {
		t.Errorf("U64s = %v", vs)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestOpenTruncated(t *testing.T) {
	sealed := Seal(samplePayload())
	for _, n := range []int{0, 1, 7, 11, len(sealed) - 1} {
		if n > len(sealed) {
			continue
		}
		_, err := Open(sealed[:n])
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
			t.Errorf("Open(%d bytes) = %v, want truncated or checksum", n, err)
		}
	}
}

func TestOpenBitFlip(t *testing.T) {
	sealed := Seal(samplePayload())
	for _, pos := range []int{0, 6, 7, 9, len(sealed) - 2} {
		mut := bytes.Clone(sealed)
		mut[pos] ^= 0x40
		_, err := Open(mut)
		if err == nil {
			t.Errorf("Open with bit flip at %d succeeded", pos)
			continue
		}
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("Open with bit flip at %d = %v, want checksum or corrupt", pos, err)
		}
	}
}

func TestOpenVersionBump(t *testing.T) {
	// A snapshot legitimately written by a future format: bump the version
	// field and re-checksum so the envelope is otherwise valid.
	sealed := Seal(samplePayload())
	mut := bytes.Clone(sealed[:len(sealed)-4])
	mut[6]++
	mut = sealCRC(mut)
	_, err := Open(mut)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("Open(version-bumped) = %v, want ErrVersion", err)
	}
}

// sealCRC re-appends a valid CRC32 over body.
func sealCRC(body []byte) []byte {
	out := append([]byte(nil), body...)
	sum := crc32.ChecksumIEEE(out)
	out = append(out, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
	return out
}

func TestDecSticky(t *testing.T) {
	d := NewDec([]byte{1, 2})
	_ = d.U64() // truncated
	if d.Err() == nil {
		t.Fatal("expected sticky error")
	}
	// Every later read returns zero values without panicking.
	if d.U64() != 0 || d.U32() != 0 || d.Bool() || d.String() != "" || d.U64s() != nil {
		t.Error("sticky decoder returned non-zero values")
	}
	if !errors.Is(d.Close(), ErrTruncated) {
		t.Errorf("Close = %v, want ErrTruncated", d.Close())
	}
}

func TestDecTrailingBytes(t *testing.T) {
	var e Enc
	e.U64(1)
	e.U64(2)
	d := NewDec(e.Bytes())
	_ = d.U64()
	if !errors.Is(d.Close(), ErrCorrupt) {
		t.Errorf("Close with trailing bytes = %v, want ErrCorrupt", d.Close())
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// A length prefix far beyond the input must error, not allocate.
	var e Enc
	e.U32(0xffffffff)
	d := NewDec(e.Bytes())
	if b := d.BytesField(); b != nil {
		t.Errorf("BytesField = %d bytes, want nil", len(b))
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("Err = %v, want ErrTruncated", d.Err())
	}

	d = NewDec(e.Bytes())
	if vs := d.U64s(); vs != nil {
		t.Errorf("U64s = %d elems, want nil", len(vs))
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("Err = %v, want ErrTruncated", d.Err())
	}

	d = NewDec(e.Bytes())
	if n := d.Count(16); n != 0 {
		t.Errorf("Count = %d, want 0", n)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("Err = %v, want ErrTruncated", d.Err())
	}
}

// TestSealLayout checks Seal against the envelope written out field by
// field (magic, version, payload, CRC32 of all before it) at sizes around a
// page boundary, and that sealing allocates only the envelope.
func TestSealLayout(t *testing.T) {
	for _, n := range []int{0, 1, 8180, 8183, 8184, 8185, 1 << 20} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*131 + i>>8)
		}
		want := append([]byte("NVCKPT"), byte(FormatVersion), byte(FormatVersion>>8))
		want = sealCRC(append(want, payload...))
		if got := Seal(payload); !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload: Seal differs from the field-by-field envelope", n)
		}
		if allocs := testing.AllocsPerRun(5, func() { Seal(payload) }); allocs != 1 {
			t.Errorf("%d-byte payload: Seal made %v allocations, want 1", n, allocs)
		}
	}
}

// TestU64Array checks that an array appends exactly the bytes of its
// elements one U64 at a time, after existing content and across a grow, and
// that an encoder with room appends without allocating.
func TestU64Array(t *testing.T) {
	vs := make([]uint64, 512)
	for i := range vs {
		vs[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	for _, n := range []int{0, 1, 3, 512} {
		var want, got Enc
		want.String("head")
		got.String("head")
		for _, v := range vs[:n] {
			want.U64(v)
		}
		got.U64Array(vs[:n])
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d elements: U64Array differs from U64 per element", n)
		}
	}
	var e Enc
	e.U64Array(vs)
	if allocs := testing.AllocsPerRun(10, func() { e.Reset(); e.U64Array(vs) }); allocs != 0 {
		t.Errorf("U64Array into a buffer with room made %v allocations, want 0", allocs)
	}
}

package fold

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestMatchesFNV drives H and the standard library's FNV-1a/64 with the same
// byte sequence — strings, little-endian integers and float bits, single
// bytes, formatted text — and requires equal sums after every step.
func TestMatchesFNV(t *testing.T) {
	ref := fnv.New64a()
	h := New()
	if h.Sum64() != ref.Sum64() || h.Sum64() != 0xcbf29ce484222325 {
		t.Fatalf("empty fold = %#x, FNV offset basis = %#x", h.Sum64(), ref.Sum64())
	}
	var b [8]byte
	minus7 := int64(-7)
	steps := []struct {
		name string
		fold func(H) H
		ref  func()
	}{
		{"Str", func(h H) H { return h.Str("orders_point") }, func() { ref.Write([]byte("orders_point")) }},
		{"Str empty", func(h H) H { return h.Str("") }, func() {}},
		{"Str utf8", func(h H) H { return h.Str("naïve ⊕") }, func() { ref.Write([]byte("naïve ⊕")) }},
		{"U32", func(h H) H { return h.U32(0xdeadbeef) }, func() {
			binary.LittleEndian.PutUint32(b[:4], 0xdeadbeef)
			ref.Write(b[:4])
		}},
		{"U64", func(h H) H { return h.U64(0x0123456789abcdef) }, func() {
			binary.LittleEndian.PutUint64(b[:], 0x0123456789abcdef)
			ref.Write(b[:])
		}},
		{"U64 sign-extended", func(h H) H { return h.U64(uint64(minus7)) }, func() {
			binary.LittleEndian.PutUint64(b[:], uint64(minus7))
			ref.Write(b[:])
		}},
		{"F64", func(h H) H { return h.F64(-1.5e300) }, func() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(-1.5e300))
			ref.Write(b[:])
		}},
		{"F64 NaN", func(h H) H { return h.F64(math.NaN()) }, func() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(math.NaN()))
			ref.Write(b[:])
		}},
		{"Byte 0", func(h H) H { return h.Byte(0) }, func() { ref.Write([]byte{0}) }},
		{"Byte 0xff", func(h H) H { return h.Byte(0xff) }, func() { ref.Write([]byte{0xff}) }},
		{"Bytes", func(h H) H { return h.Bytes([]byte{1, 2, 3, 0, 255}) }, func() { ref.Write([]byte{1, 2, 3, 0, 255}) }},
		{"Bytes nil", func(h H) H { return h.Bytes(nil) }, func() {}},
		{"Fprintf", func(h H) H {
			fmt.Fprintf(&h, "%d:%d:%#x:%x;", 17, -3, uint64(0xabc), math.Float64bits(2.5))
			return h
		}, func() { fmt.Fprintf(ref, "%d:%d:%#x:%x;", 17, -3, uint64(0xabc), math.Float64bits(2.5)) }},
	}
	for _, s := range steps {
		h = s.fold(h)
		s.ref()
		if h.Sum64() != ref.Sum64() {
			t.Fatalf("after %s: fold = %#x, hash/fnv = %#x", s.name, h.Sum64(), ref.Sum64())
		}
	}
}

// TestWriteReportsLength: *H is handed to fmt.Fprintf, which treats a short
// count as an error.
func TestWriteReportsLength(t *testing.T) {
	h := New()
	if n, err := h.Write([]byte("abc")); n != 3 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if h != New().Str("abc") {
		t.Fatalf("Write folded %#x, Str %#x", h.Sum64(), New().Str("abc").Sum64())
	}
}

var sink uint64

func TestFoldAllocatesNothing(t *testing.T) {
	name, raw := "stock_level", []byte{9, 8, 7}
	allocs := testing.AllocsPerRun(100, func() {
		h := New().Str(name).U32(7).U64(1 << 40).F64(0.25).Byte(1).Bytes(raw)
		h.Write(raw)
		sink = h.Sum64()
	})
	if allocs != 0 {
		t.Fatalf("a fold allocates %v times per run, want 0", allocs)
	}
}

// Package index implements the B+tree secondary index, including the
// multi-threaded bulk build that backs the paper's index-build contending OU
// (Table 1) and its Fig 1/11 self-driving action.
package index

import (
	"bytes"
	"encoding/binary"

	"mb2/internal/catalog"
	"mb2/internal/storage"
)

// Key is a memcmp-comparable encoding of one or more column values, in the
// style of real storage engines: bytes.Compare order on Keys matches the
// column-wise Value order.
type Key []byte

// EncodeKey encodes the given values into a composite key.
func EncodeKey(vals ...storage.Value) Key { return AppendKey(nil, vals...) }

// AppendKey appends the encoding of vals to dst and returns the extended
// slice: EncodeKey into a reusable scratch buffer.
func AppendKey(dst []byte, vals ...storage.Value) Key {
	for _, v := range vals {
		dst = appendValue(dst, v)
	}
	return dst
}

// AppendKeyFromTuple appends the encoding of the tuple's key columns to
// dst and returns the extended slice. Passing a reusable scratch buffer
// (dst[:0]) makes per-probe key construction allocation-free once the
// buffer has grown to its steady-state size — the hot-path idiom the join
// operators use. Callers must not hand the result to anything that retains
// it; the B+tree does not (Insert copies its key, lookups and deletes only
// compare).
func AppendKeyFromTuple(dst []byte, t storage.Tuple, cols []int) Key {
	for _, c := range cols {
		dst = appendValue(dst, t[c])
	}
	return dst
}

func appendValue(out []byte, v storage.Value) []byte {
	switch v.Kind {
	case catalog.Int64:
		var b [8]byte
		// Flip the sign bit so negative numbers order before positive.
		binary.BigEndian.PutUint64(b[:], uint64(v.I)^(1<<63))
		return append(out, b[:]...)
	case catalog.Float64:
		bits := uint64(v.I) // a Float64 value's I is its IEEE-754 bits
		if bits&(1<<63) != 0 {
			bits = ^bits // negative floats: flip everything
		} else {
			bits |= 1 << 63 // positive floats: flip sign bit
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		return append(out, b[:]...)
	default:
		// Escape 0x00 as 0x00 0xFF and terminate with 0x00 0x00 so that
		// prefixes order correctly and segments cannot bleed together.
		for i := 0; i < len(v.S); i++ {
			c := v.S[i]
			out = append(out, c)
			if c == 0x00 {
				out = append(out, 0xFF)
			}
		}
		return append(out, 0x00, 0x00)
	}
}

// Compare orders two keys.
func (k Key) Compare(o Key) int { return bytes.Compare(k, o) }

// Equal reports key equality.
func (k Key) Equal(o Key) bool { return bytes.Equal(k, o) }

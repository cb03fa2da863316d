// Package fold is the repository's one FNV-1a/64 fold: every digest,
// fingerprint, partition route and identity-derived seed packs its bytes
// through H, so seeded bit-for-bit replay rests on one definition of the
// hash and of the byte order. Integers and float bits fold as little-endian
// bytes, strings as their raw bytes; sums equal the standard library's
// 64-bit FNV-1a over the same byte sequence (fold_test.go holds them to it).
package fold

import "math"

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// H is a fold's running state. Every method returns the advanced state and
// allocates nothing, so folds chain: fold.New().Str(name).U64(seed).Sum64().
type H uint64

// New returns the empty fold (FNV's offset basis).
func New() H { return offset64 }

// Byte folds one byte.
func (h H) Byte(b byte) H { return (h ^ H(b)) * prime64 }

// Bytes folds p in order.
func (h H) Bytes(p []byte) H {
	for _, b := range p {
		h = h.Byte(b)
	}
	return h
}

// Str folds the bytes of s (no length prefix).
func (h H) Str(s string) H {
	for i := 0; i < len(s); i++ {
		h = h.Byte(s[i])
	}
	return h
}

// U32 folds v as 4 little-endian bytes.
func (h H) U32(v uint32) H {
	return h.Byte(byte(v)).Byte(byte(v >> 8)).Byte(byte(v >> 16)).Byte(byte(v >> 24))
}

// U64 folds v as 8 little-endian bytes.
func (h H) U64(v uint64) H { return h.U32(uint32(v)).U32(uint32(v >> 32)) }

// F64 folds the IEEE-754 bits of f as 8 little-endian bytes.
func (h H) F64(f float64) H { return h.U64(math.Float64bits(f)) }

// Sum64 returns the fold's value.
func (h H) Sum64() uint64 { return uint64(h) }

// Write folds p in place and never fails: *H is the io.Writer fmt.Fprintf
// text is folded through.
func (h *H) Write(p []byte) (int, error) {
	*h = h.Bytes(p)
	return len(p), nil
}

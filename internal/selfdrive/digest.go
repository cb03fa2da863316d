package selfdrive

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"

	"mb2/internal/catalog"
)

// digest folds a run's observable behavior into one FNV-1a fingerprint:
// integers and float bits as 8 little-endian bytes, strings as their raw
// bytes.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) { d.h.Write([]byte(s)) }

// interval folds one interval's observable outcome: the per-template counts
// (names is their sorted key set), the observed latency, the execution
// mode, and the cumulative action log.
func (d *digest) interval(i int, names []string, counts map[string]float64, observed float64, mode catalog.ExecutionMode, actions []AppliedAction) {
	d.u64(uint64(i))
	for _, name := range names {
		d.str(name)
		d.f64(counts[name])
	}
	d.f64(observed)
	d.u64(uint64(mode))
	d.u64(uint64(len(actions)))
	for _, a := range actions {
		d.str(a.Kind)
		d.str(a.Detail)
	}
}

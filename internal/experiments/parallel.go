package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
)

// Digest returns an FNV-64a fingerprint of the pipeline's complete trained
// state: every training record (features and labels), every OU-model's
// selection report and its predictions over its own training features, and
// the interference model's selection report. Two pipelines built from the
// same Config at different -j settings must digest identically — the
// serial-equivalence proof the parallel pipeline is tested against.
func (p *Pipeline) Digest() uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}

	for _, kind := range p.Repo.Kinds() {
		u64(uint64(kind))
		for _, rec := range p.Repo.Records(kind) {
			for _, v := range rec.Features {
				f64(v)
			}
			for _, v := range rec.Labels.Vec() {
				f64(v)
			}
		}
	}
	if p.Models != nil {
		for _, kind := range p.Models.Kinds() {
			m := p.Models.OUModels[kind]
			u64(uint64(kind))
			str(m.Report.Best)
			for _, c := range m.Report.Candidates {
				str(c.Name)
				f64(c.Error)
			}
			for _, rec := range p.Repo.Records(kind) {
				for _, v := range m.Predict(rec.Features).Vec() {
					f64(v)
				}
			}
		}
		if im := p.Models.Interference; im != nil {
			str(im.Report.Best)
			for _, c := range im.Report.Candidates {
				str(c.Name)
				f64(c.Error)
			}
			u64(uint64(im.Model.SizeBytes()))
		}
	}
	return h.Sum64()
}

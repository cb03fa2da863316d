package experiments

import (
	"mb2/internal/fold"
	"mb2/internal/ml"
)

// Digest returns an FNV-64a fingerprint of the pipeline's complete trained
// state: every training record (features and labels), every OU-model's
// selection report and its predictions over its own training features, and
// the interference model's selection report. Two pipelines built from the
// same Config at different -j settings must digest identically — the
// serial-equivalence proof the parallel pipeline is tested against.
func (p *Pipeline) Digest() uint64 {
	h := fold.New()
	for _, kind := range p.Repo.Kinds() {
		h = h.U64(uint64(kind))
		for _, rec := range p.Repo.Records(kind) {
			for _, v := range rec.Features {
				h = h.F64(v)
			}
			for _, v := range rec.Labels.Vec() {
				h = h.F64(v)
			}
		}
	}
	if p.Models != nil {
		for _, kind := range p.Models.Kinds() {
			m := p.Models.OUModels[kind]
			h = foldReport(h.U64(uint64(kind)), m.Report)
			for _, rec := range p.Repo.Records(kind) {
				for _, v := range m.Predict(rec.Features).Vec() {
					h = h.F64(v)
				}
			}
		}
		if im := p.Models.Interference; im != nil {
			h = foldReport(h, im.Report).U64(uint64(im.Model.SizeBytes()))
		}
	}
	return h.Sum64()
}

// foldReport folds a selection report: the winner and every candidate's
// name and validation error, each string closed by a zero byte.
func foldReport(h fold.H, r ml.SelectionReport) fold.H {
	h = h.Str(r.Best).Byte(0)
	for _, c := range r.Candidates {
		h = h.Str(c.Name).Byte(0).F64(c.Error)
	}
	return h
}

package attack

// Attack-layer hot-path gauges (make bench-attack): the per-iteration
// cost of the BFA progressive bit search and of candidate selection
// alone, with allocation stats. BenchmarkBFASearchIter's allocs/op is
// the zero-alloc steady-state gate; BenchmarkRankCandidates tracks the
// bounded top-k selector against the pre-optimization full sort
// (README's Performance table records the before/after).

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/quant"
)

// benchVictim builds the ResNet-20 attack surface at the tiny preset
// scale without training (the gradient landscape's shape, not its
// quality, is what the search cost depends on).
func benchVictim(b *testing.B) (*quant.Model, nn.Batch) {
	b.Helper()
	ds, err := dataset.Generate(dataset.Tiny(4))
	if err != nil {
		b.Fatal(err)
	}
	qm := quant.NewModel(nn.NewResNet20(4, 0.25, 21))
	return qm, ds.TestSplit.Slice(0, 16)
}

// BenchmarkBFASearchIter times one steady-state search iteration —
// gradient pass, top-k selection, trial forward passes — on a reused
// Searcher. Allocs/op must stay at a small constant: no per-iteration
// candidate slices, map churn or activation buffers. The par budget is
// pinned to 1, as in TestSearchIterationSteadyStateAllocs, so allocs/op
// gauges that contract rather than the goroutine fan-out of the
// parallel kernels.
func BenchmarkBFASearchIter(b *testing.B) {
	qm, ab := benchVictim(b)
	cfg := DefaultBFAConfig()
	s, err := NewSearcher(qm, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer par.SetBudget(par.Budget())
	par.SetBudget(1)
	s.step(ab) // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(ab)
	}
}

// BenchmarkRankCandidates times candidate selection alone (the part the
// bounded top-k selector replaced): one scan of the scored attack
// surface returning the top CandidatesPerIter untried bits.
func BenchmarkRankCandidates(b *testing.B) {
	qm, ab := benchVictim(b)
	cfg := DefaultBFAConfig()
	s, err := NewSearcher(qm, cfg)
	if err != nil {
		b.Fatal(err)
	}
	nn.GradientPass(qm.Net, ab)
	s.selectTopK() // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.selectTopK()
	}
}

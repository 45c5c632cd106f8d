package search

import "repro/internal/tree"

// White-box access for the external tests of this directory.

// SetInsertionHook installs f to see every SPR prune point's candidates
// and scores while the subtree is still pruned.
func (s *Searcher) SetInsertionHook(f func(ps *tree.PrunedSubtree, cands []*tree.Node, scores []float64)) {
	s.insertionHook = f
}

// Prepare is Run's prelude: push the parameters, evaluate the start tree.
func (s *Searcher) Prepare() float64 {
	s.pushShared()
	return s.evaluateFull()
}

// TryPrunePoint exposes tryPrunePoint.
func (s *Searcher) TryPrunePoint(p *tree.Node, radius int, cur float64) (bool, float64, error) {
	return s.tryPrunePoint(p, radius, cur)
}

// Dirty exposes the dirty-slot overlay.
func (s *Searcher) Dirty() []bool { return s.dirty }

// OptimizeModel exposes one model-parameter round.
func (s *Searcher) OptimizeModel() error { return s.optimizeModel() }

// Held exposes the per-partition log likelihoods the searcher holds.
func (s *Searcher) Held() []float64 { return s.perPart }

// Shared returns a copy of the shared-parameter matrix.
func (s *Searcher) Shared() [][]float64 { return s.sharedMatrix() }

package autotune

import (
	"math"
	"math/rand"
)

// randomSearch is the no-structure baseline searcher: every cycle draws an
// independent uniform configuration, and the incumbent is simply the best
// sample so far. The paper's AtuneRT uses random sampling only to seed the
// Nelder–Mead simplex; keeping the pure strategy around lets experiments
// quantify what the simplex search adds over sampling alone.
type randomSearch struct {
	params []*param
	rng    *rand.Rand
	budget int // evaluations before the search freezes on the incumbent

	best     []int
	bestCost float64
	count    int
}

// newRandomSearch creates the baseline with the given evaluation budget
// (<=0 means never freeze: keep sampling forever).
func newRandomSearch(params []*param, budget int, rng *rand.Rand) *randomSearch {
	return &randomSearch{
		params:   params,
		rng:      rng,
		budget:   budget,
		bestCost: math.Inf(1),
	}
}

// Next returns the configuration to measure.
func (r *randomSearch) Next() []int {
	if r.Converged() {
		return append([]int(nil), r.best...)
	}
	cfg := make([]int, len(r.params))
	for i, p := range r.params {
		cfg[i] = r.rng.Intn(len(p.values))
	}
	return cfg
}

// Report records the measured cost.
func (r *randomSearch) Report(cfg []int, cost float64) {
	r.count++
	if cost < r.bestCost {
		r.bestCost = cost
		r.best = append(r.best[:0], cfg...)
	}
}

// Converged reports whether the sampling budget is exhausted.
func (r *randomSearch) Converged() bool {
	return r.budget > 0 && r.count >= r.budget && r.best != nil
}

var _ searcher = (*randomSearch)(nil)

// NewRandomTuner wraps the random-sampling baseline over every tunable of
// reg in the Tuner workflow, mirroring NewExhaustiveTuner.
func NewRandomTuner(opts Options, reg *Registry, budget int) (*Tuner, error) {
	t := New(opts)
	if err := t.RegisterAll(reg); err != nil {
		return nil, err
	}
	t.search = newRandomSearch(t.params, budget, t.rng)
	return t, nil
}

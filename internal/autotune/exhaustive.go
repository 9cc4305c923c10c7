package autotune

import "math"

// exhaustive enumerates a (possibly strided) grid over the registered
// parameter space and tracks the optimum. It is the reference the paper
// compares the Nelder–Mead results against in §V-D4 ("Comparison to
// exhaustive search").
//
// There is no convergence in the online sense: the search is done once the
// grid is exhausted, after which Next keeps returning the optimum.
type exhaustive struct {
	params  []*param
	strides []int
	cursor  []int // current index per dimension (pre-stride grid walk)
	done    bool

	best     []int
	bestCost float64
}

// newExhaustive builds an exhaustive searcher over the given parameters.
// strides[i] visits every strides[i]-th value of parameter i; a missing,
// zero or unit stride means full resolution, and strides past the last
// parameter are ignored. The full Table II grid has ~483k points, so the
// harness passes coarser strides (documented in DESIGN.md) to keep §V-D4
// tractable.
func newExhaustive(params []*param, strides []int) *exhaustive {
	e := &exhaustive{
		params:   params,
		strides:  make([]int, len(params)),
		cursor:   make([]int, len(params)),
		bestCost: math.Inf(1),
	}
	for i := range params {
		e.strides[i] = 1
		if i < len(strides) && strides[i] > 1 {
			e.strides[i] = strides[i]
		}
	}
	return e
}

// Next returns the configuration to measure (indices per parameter).
func (e *exhaustive) Next() []int {
	if e.done {
		return append([]int(nil), e.best...)
	}
	return append([]int(nil), e.cursor...)
}

// Report records the cost of the last configuration and advances the walk.
func (e *exhaustive) Report(cfg []int, cost float64) {
	if e.done {
		return
	}
	if cost < e.bestCost {
		e.bestCost = cost
		e.best = append(e.best[:0], cfg...)
	}
	// Odometer increment with per-dimension stride.
	for d := 0; d < len(e.cursor); d++ {
		e.cursor[d] += e.strides[d]
		if e.cursor[d] < len(e.params[d].values) {
			return
		}
		e.cursor[d] = 0
	}
	e.done = true
}

// Converged reports whether the grid walk has finished.
func (e *exhaustive) Converged() bool { return e.done }

var _ searcher = (*exhaustive)(nil)

// NewExhaustiveTuner wraps an exhaustive grid walk over every tunable of reg
// in the Tuner Start/Stop workflow, so harness code drives both searches
// identically. Dimension i of the walk is registry tunable i, coarsened by
// strides[i] (see newExhaustive).
func NewExhaustiveTuner(opts Options, reg *Registry, strides []int) (*Tuner, error) {
	t := New(opts)
	if err := t.RegisterAll(reg); err != nil {
		return nil, err
	}
	t.search = newExhaustive(t.params, strides)
	return t, nil
}

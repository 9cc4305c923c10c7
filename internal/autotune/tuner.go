package autotune

import (
	"math"
	"math/rand"
	"time"
)

// Sample records one measurement cycle: the configuration (parameter
// values, not indices) that was active and the cost observed for it.
// Censored samples come from aborted cycles (StopAborted): their Cost is a
// synthetic penalty, not a measurement.
type Sample struct {
	Values   []int
	Cost     float64
	Censored bool
}

// abortFallbackCost stands in for the penalty when nothing has been
// measured yet. Large enough to dominate any plausible real cost, but
// finite: an Inf cost would poison the Nelder–Mead centroid arithmetic.
const abortFallbackCost = 1e18

// Options configures a Tuner. The zero value selects sensible defaults.
type Options struct {
	// Seed initialises the random sampling phase; 0 derives a seed from
	// the current time.
	Seed int64
	// SeedSamples is the size of the random sampling phase that seeds the
	// Nelder–Mead simplex (default: 2·(d+1), at least d+1).
	SeedSamples int
	// Clock returns a monotonic timestamp; tests inject a fake. Defaults
	// to time.Now-based monotonic time.
	Clock func() time.Duration
	// RetuneThreshold triggers a search restart when the cost measured for
	// the converged best configuration exceeds the best known cost by this
	// factor for RetuneWindow consecutive cycles (online adaptation to
	// drift, §V-D4 "repeating the optimization as needed"). <=1 disables.
	RetuneThreshold float64
	// RetuneWindow is the number of consecutive bad cycles before a
	// restart (default 5).
	RetuneWindow int
	// AbortPenalty is the cost multiple charged to an aborted cycle
	// (StopAborted): penalty = AbortPenalty × best known cost. It must
	// exceed 1 so Nelder–Mead reliably ranks aborted configurations worst
	// and reflects away from them; <=1 selects the default of 8.
	AbortPenalty float64
}

// Tuner is the online autotuner. It is not safe for concurrent use: the
// client hands it a Registry with RegisterAll during setup, then alternates
// Start/Stop around the region being tuned (Figure 1).
type Tuner struct {
	opts   Options
	params []*param
	rng    *rand.Rand
	search searcher

	started    bool
	startStamp time.Duration
	current    []int // indices per parameter of the active configuration

	iterations int
	best       []int // indices of the best configuration of the current search round
	bestCost   float64
	history    []Sample

	// The incumbent carries the best configuration across Retune restarts:
	// Retune invalidates the current round's cost baseline (it reflects a
	// stale context) but Best/ApplyBest must keep answering with real
	// values until the new round has measured something.
	incumbent     []int
	incumbentCost float64

	badStreak int // consecutive over-threshold cycles after convergence
	restarts  int
	censored  int // aborted cycles recorded via StopAborted
}

// New creates a tuner with the given options.
func New(opts Options) *Tuner {
	if opts.Clock == nil {
		base := time.Now()
		opts.Clock = func() time.Duration { return time.Since(base) }
	}
	if opts.Seed == 0 {
		opts.Seed = time.Now().UnixNano()
	}
	if opts.RetuneWindow <= 0 {
		opts.RetuneWindow = 5
	}
	return &Tuner{
		opts:          opts,
		rng:           rand.New(rand.NewSource(opts.Seed)),
		bestCost:      math.Inf(1),
		incumbentCost: math.Inf(1),
	}
}

// ensureSearch lazily builds the searcher on first Start.
func (t *Tuner) ensureSearch() {
	if t.search != nil {
		return
	}
	seeds := t.opts.SeedSamples
	if seeds <= 0 {
		seeds = 2 * (len(t.params) + 1)
	}
	t.search = newNelderMead(t.params, seeds, t.rng)
}

// Start begins a measurement cycle: the configuration under test is written
// into the registered client variables and the clock starts.
func (t *Tuner) Start() {
	if t.started {
		panic("autotune: Start called twice without Stop")
	}
	if len(t.params) == 0 {
		panic("autotune: no parameters registered")
	}
	t.ensureSearch()
	t.current = t.search.Next()
	for i, p := range t.params {
		p.apply(t.current[i])
	}
	t.started = true
	t.startStamp = t.opts.Clock()
}

// Stop ends the measurement cycle: the elapsed time is reported to the
// search, bookkeeping is updated, and the next configuration is chosen (it
// becomes visible to the client at the next Start).
func (t *Tuner) Stop() {
	elapsed := t.opts.Clock() - t.startStamp
	t.StopWithCost(float64(elapsed))
}

// StopWithCost is Stop with an externally supplied cost value, for clients
// whose objective is not wall-clock time (and for deterministic tests).
func (t *Tuner) StopWithCost(cost float64) {
	if !t.started {
		panic("autotune: Stop called without Start")
	}
	t.started = false
	t.iterations++

	values := t.currentValues()
	t.history = append(t.history, Sample{Values: values, Cost: cost})

	wasConverged := t.search.Converged()
	t.search.Report(t.current, cost)

	if cost < t.bestCost {
		t.bestCost = cost
		t.best = append(t.best[:0], t.current...)
	}

	// Drift detection: once converged, persistent degradation of the best
	// configuration triggers a re-tune.
	if wasConverged && t.opts.RetuneThreshold > 1 {
		if cost > t.bestCost*t.opts.RetuneThreshold {
			t.badStreak++
			if t.badStreak >= t.opts.RetuneWindow {
				t.Retune()
			}
		} else {
			t.badStreak = 0
		}
	}
}

// StopAborted ends a measurement cycle whose build or render was aborted
// (deadline, depth, memory, worker panic). The cycle becomes a censored
// sample: no real cost exists, so a penalty — AbortPenalty times the best
// known cost — is reported to the search instead. The penalty ranks the
// configuration decisively worst, so Nelder–Mead reflects away from the
// pathological region instead of re-probing it, while staying finite so the
// simplex arithmetic remains well-defined. A censored cycle never updates
// the round best (and the incumbent only ever receives round bests), so
// Best and ApplyBest can never answer with a censored configuration.
func (t *Tuner) StopAborted() {
	if !t.started {
		panic("autotune: StopAborted called without Start")
	}
	t.started = false
	t.iterations++
	t.censored++

	cost := t.penaltyCost()
	t.history = append(t.history, Sample{Values: t.currentValues(), Cost: cost, Censored: true})

	wasConverged := t.search.Converged()
	t.search.Report(t.current, cost)

	// Drift detection: an abort of the converged configuration is
	// definitionally a bad cycle — if the supposedly-good incumbent region
	// keeps aborting, the context has shifted and a re-tune is due.
	if wasConverged && t.opts.RetuneThreshold > 1 {
		t.badStreak++
		if t.badStreak >= t.opts.RetuneWindow {
			t.Retune()
		}
	}
}

// penaltyCost derives the censored-sample cost from the best measurement
// available: the round best, else the incumbent, else a large finite
// fallback when nothing has been measured at all.
func (t *Tuner) penaltyCost() float64 {
	factor := t.opts.AbortPenalty
	if factor <= 1 {
		factor = 8
	}
	ref := t.bestCost
	if math.IsInf(ref, 0) {
		ref = t.incumbentCost
	}
	if math.IsInf(ref, 0) || ref <= 0 {
		return abortFallbackCost
	}
	return ref * factor
}

// Censored returns how many aborted (penalized) cycles have been recorded.
func (t *Tuner) Censored() int { return t.censored }

// currentValues maps the active index vector to parameter values.
func (t *Tuner) currentValues() []int {
	vals := make([]int, len(t.current))
	for i, p := range t.params {
		vals[i] = p.values[t.current[i]]
	}
	return vals
}

// Converged reports whether the search has settled on a configuration.
func (t *Tuner) Converged() bool {
	return t.search != nil && t.search.Converged()
}

// Iterations returns the number of completed measurement cycles.
func (t *Tuner) Iterations() int { return t.iterations }

// Restarts returns how many drift-triggered re-tunes have happened.
func (t *Tuner) Restarts() int { return t.restarts }

// bestIndices selects the configuration Best/ApplyBest answer with: the
// current round's best once it has measured anything, otherwise the
// incumbent carried over from before the last restart.
func (t *Tuner) bestIndices() ([]int, float64) {
	if t.best != nil {
		return t.best, t.bestCost
	}
	return t.incumbent, t.incumbentCost
}

// Best returns the parameter values and cost of the best configuration
// measured so far (in the current search round, falling back to the
// incumbent right after a restart). ok is false before the first completed
// cycle.
func (t *Tuner) Best() (values []int, cost float64, ok bool) {
	idx, cost := t.bestIndices()
	if idx == nil {
		return nil, 0, false
	}
	values = make([]int, len(idx))
	for i, p := range t.params {
		values[i] = p.values[idx[i]]
	}
	return values, cost, true
}

// ApplyBest writes the best known configuration into the client variables,
// e.g. after tuning is declared finished.
func (t *Tuner) ApplyBest() bool {
	idx, _ := t.bestIndices()
	if idx == nil {
		return false
	}
	for i, p := range t.params {
		p.apply(idx[i])
	}
	return true
}

// History returns all measurement cycles in order. The returned slice is
// shared; callers must not modify it.
func (t *Tuner) History() []Sample { return t.history }

// Retune restarts the search around the incumbent best configuration —
// online adaptation when the measuring context K changes (new scene,
// changed system load). It is a no-op for searchers that do not support
// restarting (only Nelder–Mead does), so Restarts() counts only actual
// restarts.
func (t *Tuner) Retune() {
	if t.search == nil || t.best == nil {
		return
	}
	nm, ok := t.search.(*nelderMead)
	if !ok {
		return
	}
	seeds := t.opts.SeedSamples
	if seeds <= 0 {
		seeds = 2 * (len(t.params) + 1)
	}
	nm.restart(t.best, seeds)
	// Promote the round's best to incumbent, then invalidate the round:
	// the recorded cost may reflect a stale context, but Best() keeps
	// answering with the incumbent until the new round measures.
	t.incumbent = append(t.incumbent[:0], t.best...)
	t.incumbentCost = t.bestCost
	t.best = nil
	t.bestCost = math.Inf(1)
	t.badStreak = 0
	t.restarts++
}

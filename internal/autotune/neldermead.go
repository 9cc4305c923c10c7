package autotune

import (
	"math"
	"math/rand"
)

// searcher is the strategy interface the Tuner drives: Next proposes the
// configuration (as per-parameter value indices) to measure next, Report
// feeds back the measured cost, Converged signals that the search has
// settled.
type searcher interface {
	Next() []int
	Report(cfg []int, cost float64)
	Converged() bool
}

// nmPhase is the Nelder–Mead state machine phase: which proposal the
// searcher is waiting to hear a measurement for.
type nmPhase int

const (
	nmSeeding  nmPhase = iota // random sampling to seed the simplex
	nmReflect                 // awaiting f(reflection point)
	nmExpand                  // awaiting f(expansion point)
	nmContract                // awaiting f(contraction point)
	nmShrink                  // awaiting f of shrunk vertices, one by one
	nmDone
)

// The standard Nelder–Mead coefficients.
const (
	nmAlpha = 1.0 // reflection
	nmGamma = 2.0 // expansion
	nmRho   = 0.5 // contraction
	nmSigma = 0.5 // shrink
)

// vertex is one simplex corner: a point in the normalised [0,1]^d search
// space and its measured cost.
type vertex struct {
	x    []float64
	cost float64
}

// nelderMead implements the paper's search: random samples seed a simplex,
// then the classic Nelder–Mead moves walk it downhill. The search space is
// the cross product of the registered parameters' index ranges, normalised
// per dimension to [0,1]; proposals snap to the nearest grid point when
// emitted. Because online measurements are noisy, convergence is declared
// when the simplex collapses onto (nearly) a single grid cell.
type nelderMead struct {
	params []*param
	rng    *rand.Rand

	phase      nmPhase
	seedBudget int         // random samples still to draw
	seeds      []vertex    // measured seed points
	forced     [][]float64 // seed points to try before random ones (restart incumbents)

	simplex []vertex // d+1 vertices, sorted best-first after each accept

	// Pending proposal bookkeeping.
	pending    []float64 // continuous coords of the point under evaluation
	reflected  vertex    // kept between reflect and expand/contract phases
	contractIn bool      // inside vs outside contraction
	shrinkIdx  int       // next simplex vertex to re-evaluate during shrink

	evaluations int
}

// newNelderMead creates the searcher. seedSamples is the size of the random
// sampling phase; it is clamped below to d+1 so a full simplex can be
// formed.
func newNelderMead(params []*param, seedSamples int, rng *rand.Rand) *nelderMead {
	d := len(params)
	if seedSamples < d+1 {
		seedSamples = d + 1
	}
	return &nelderMead{
		params:     params,
		rng:        rng,
		phase:      nmSeeding,
		seedBudget: seedSamples,
	}
}

// dim returns the search-space dimensionality.
func (nm *nelderMead) dim() int { return len(nm.params) }

// snap converts continuous normalised coordinates to parameter indices.
func (nm *nelderMead) snap(x []float64) []int {
	cfg := make([]int, len(x))
	for i, p := range nm.params {
		n := len(p.values)
		idx := int(math.Round(x[i] * float64(n-1)))
		cfg[i] = p.clampIndex(idx)
	}
	return cfg
}

// lift converts parameter indices to normalised coordinates.
func (nm *nelderMead) lift(cfg []int) []float64 {
	x := make([]float64, len(cfg))
	for i, p := range nm.params {
		n := len(p.values)
		if n > 1 {
			x[i] = float64(cfg[i]) / float64(n-1)
		}
	}
	return x
}

// clamp01 keeps proposals inside the box constraints.
func clamp01(x []float64) []float64 {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		} else if v > 1 {
			x[i] = 1
		}
	}
	return x
}

// Next returns the configuration to measure now.
func (nm *nelderMead) Next() []int {
	switch nm.phase {
	case nmSeeding:
		if len(nm.forced) > 0 {
			nm.pending = nm.forced[0]
			nm.forced = nm.forced[1:]
			return nm.snap(nm.pending)
		}
		x := make([]float64, nm.dim())
		for i := range x {
			x[i] = nm.rng.Float64()
		}
		nm.pending = x
		return nm.snap(x)
	case nmDone:
		// Converged: keep proposing the best known vertex (the tuner keeps
		// measuring it so drift detection has fresh data).
		return nm.snap(nm.simplex[0].x)
	default:
		return nm.snap(nm.pending)
	}
}

// Report feeds the measured cost of the configuration last returned by Next.
func (nm *nelderMead) Report(cfg []int, cost float64) {
	nm.evaluations++
	switch nm.phase {
	case nmSeeding:
		nm.seeds = append(nm.seeds, vertex{x: nm.pending, cost: cost})
		nm.seedBudget--
		if nm.seedBudget == 0 {
			nm.buildSimplex()
		}
	case nmReflect:
		nm.onReflect(cost)
	case nmExpand:
		nm.onExpand(cost)
	case nmContract:
		nm.onContract(cost)
	case nmShrink:
		nm.onShrink(cost)
	case nmDone:
		// Re-measurement of the best point: refresh its cost estimate so a
		// drifting environment is reflected in Best queries.
		nm.simplex[0].cost = cost
	}
}

// Converged reports whether the simplex has collapsed to one grid cell.
func (nm *nelderMead) Converged() bool { return nm.phase == nmDone }

// buildSimplex selects the best d+1 distinct-seed vertices, topping up with
// random perturbations if the seeds snapped onto too few grid cells.
func (nm *nelderMead) buildSimplex() {
	sortVertices(nm.seeds)
	d := nm.dim()
	nm.simplex = nm.simplex[:0]
	seenCells := map[string]bool{}
	for _, v := range nm.seeds {
		key := cellKey(nm.snap(v.x))
		if seenCells[key] {
			continue
		}
		seenCells[key] = true
		nm.simplex = append(nm.simplex, v)
		if len(nm.simplex) == d+1 {
			break
		}
	}
	// Degenerate seed set (e.g. tiny search space): duplicate best with
	// axis jitter; duplicates cost nothing extra because they re-measure.
	for len(nm.simplex) < d+1 {
		x := append([]float64(nil), nm.simplex[0].x...)
		axis := len(nm.simplex) - 1
		if axis >= d {
			axis = nm.rng.Intn(d)
		}
		x[axis] = nm.rng.Float64()
		nm.simplex = append(nm.simplex, vertex{x: clamp01(x), cost: math.Inf(1)})
	}
	nm.startIteration()
}

// startIteration orders the simplex, checks convergence, and proposes the
// reflection point.
func (nm *nelderMead) startIteration() {
	sortVertices(nm.simplex)
	if nm.collapsed() {
		nm.phase = nmDone
		return
	}
	centroid := nm.centroidExcludingWorst()
	worst := nm.simplex[len(nm.simplex)-1]
	xr := make([]float64, nm.dim())
	for i := range xr {
		xr[i] = centroid[i] + nmAlpha*(centroid[i]-worst.x[i])
	}
	nm.pending = clamp01(xr)
	nm.phase = nmReflect
}

func (nm *nelderMead) onReflect(cost float64) {
	nm.reflected = vertex{x: append([]float64(nil), nm.pending...), cost: cost}
	best := nm.simplex[0]
	secondWorst := nm.simplex[len(nm.simplex)-2]
	worst := nm.simplex[len(nm.simplex)-1]
	switch {
	case cost < best.cost:
		// Try to go further: expansion.
		centroid := nm.centroidExcludingWorst()
		xe := make([]float64, nm.dim())
		for i := range xe {
			xe[i] = centroid[i] + nmGamma*(nm.reflected.x[i]-centroid[i])
		}
		nm.pending = clamp01(xe)
		nm.phase = nmExpand
	case cost < secondWorst.cost:
		nm.acceptWorst(nm.reflected)
		nm.startIteration()
	default:
		// Contract: outside if the reflection at least beat the worst.
		centroid := nm.centroidExcludingWorst()
		xc := make([]float64, nm.dim())
		if cost < worst.cost {
			nm.contractIn = false
			for i := range xc {
				xc[i] = centroid[i] + nmRho*(nm.reflected.x[i]-centroid[i])
			}
		} else {
			nm.contractIn = true
			for i := range xc {
				xc[i] = centroid[i] + nmRho*(worst.x[i]-centroid[i])
			}
		}
		nm.pending = clamp01(xc)
		nm.phase = nmContract
	}
}

func (nm *nelderMead) onExpand(cost float64) {
	if cost < nm.reflected.cost {
		nm.acceptWorst(vertex{x: append([]float64(nil), nm.pending...), cost: cost})
	} else {
		nm.acceptWorst(nm.reflected)
	}
	nm.startIteration()
}

func (nm *nelderMead) onContract(cost float64) {
	worst := nm.simplex[len(nm.simplex)-1]
	ref := worst.cost
	if !nm.contractIn {
		ref = nm.reflected.cost
	}
	if cost < ref {
		nm.acceptWorst(vertex{x: append([]float64(nil), nm.pending...), cost: cost})
		nm.startIteration()
		return
	}
	// Shrink everything towards the best vertex and re-measure.
	best := nm.simplex[0]
	for i := 1; i < len(nm.simplex); i++ {
		for j := range nm.simplex[i].x {
			nm.simplex[i].x[j] = best.x[j] + nmSigma*(nm.simplex[i].x[j]-best.x[j])
		}
		clamp01(nm.simplex[i].x)
	}
	nm.shrinkIdx = 1
	nm.pending = nm.simplex[1].x
	nm.phase = nmShrink
}

func (nm *nelderMead) onShrink(cost float64) {
	nm.simplex[nm.shrinkIdx].cost = cost
	nm.shrinkIdx++
	if nm.shrinkIdx < len(nm.simplex) {
		nm.pending = nm.simplex[nm.shrinkIdx].x
		return
	}
	nm.startIteration()
}

// acceptWorst replaces the worst vertex.
func (nm *nelderMead) acceptWorst(v vertex) {
	nm.simplex[len(nm.simplex)-1] = v
}

// centroidExcludingWorst averages all simplex vertices but the worst.
func (nm *nelderMead) centroidExcludingWorst() []float64 {
	d := nm.dim()
	c := make([]float64, d)
	n := len(nm.simplex) - 1
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			c[j] += nm.simplex[i].x[j]
		}
	}
	for j := 0; j < d; j++ {
		c[j] /= float64(n)
	}
	return c
}

// collapsed reports whether every simplex vertex snaps to the same
// configuration — the natural convergence criterion on a discrete grid.
func (nm *nelderMead) collapsed() bool {
	key := cellKey(nm.snap(nm.simplex[0].x))
	for _, v := range nm.simplex[1:] {
		if cellKey(nm.snap(v.x)) != key {
			return false
		}
	}
	return true
}

// restart re-seeds the search around (and including) the given best-known
// configuration; used by the tuner's drift detection.
func (nm *nelderMead) restart(bestCfg []int, seedSamples int) {
	d := nm.dim()
	if seedSamples < d+1 {
		seedSamples = d + 1
	}
	nm.seeds = nm.seeds[:0]
	nm.simplex = nm.simplex[:0]
	// Re-measure the incumbent first so a retune can never lose it.
	nm.forced = append(nm.forced[:0], nm.lift(bestCfg))
	nm.seedBudget = seedSamples
	nm.phase = nmSeeding
}

// sortVertices orders by ascending cost (best first), stably so ties keep
// their insertion order.
func sortVertices(vs []vertex) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j].cost < vs[j-1].cost; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// cellKey builds a map key from a snapped configuration.
func cellKey(cfg []int) string {
	b := make([]byte, 0, len(cfg)*3)
	for _, v := range cfg {
		b = append(b, byte(v), byte(v>>8), byte(v>>16))
	}
	return string(b)
}

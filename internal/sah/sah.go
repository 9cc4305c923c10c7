// Package sah implements the Surface Area Heuristic cost model of the paper
// (§III-B) and the two split-search strategies the four builders rely on:
//
//   - an event-sweep search in the style of Wald & Havran ("On building fast
//     kd-trees for ray tracing"), which enumerates every candidate plane
//     defined by (clipped) primitive bounds and is exact up to the cost
//     model, and
//   - a binned search in the style of the parallel builders (Choi et al.,
//     Danilewski et al.), which histograms primitive extents into a fixed
//     number of bins per axis and evaluates the SAH only at bin boundaries —
//     cheaper and embarrassingly parallel.
//
// The cost model is controlled by three parameters (Table I):
//
//	CT — cost of traversing an inner node (fixed to 10, §IV-A),
//	CI — cost of intersecting a triangle (tunable, τ_CI = [3, 101]),
//	CB — cost of duplicating a primitive  (tunable, τ_CB = [0, 60]).
//
// Equation (1):
//
//	SAH(h,b) = CT + P(l|b)·Nl·CI + P(r|b)·Nr·CI + (Nl+Nr−Nb)·CB
//
// Equation (2), the termination criterion: stop subdividing b when
// Nb·CI ≤ min_h SAH(h,b).
//
// Each strategy has one canceler-aware entry point the builders call —
// FindBestSplitSweepCancel and FindBestSplitBinnedChunksCancel — and one
// sequential convenience wrapper over it, FindBestSplitSweep and
// FindBestSplitBinned. A canceled search returns (Split{Cost: +Inf}, false),
// the same value as a search that found no valid plane, so callers check
// their canceler before trusting a false result. One candidate evaluation,
// PlaneSweep, serves all three searches: the per-node sweep, the sort-once
// builder's presorted sweep and the binned search's bin boundaries.
package sah

import (
	"math"
	"sync"

	"kdtune/internal/parallel"
	"kdtune/internal/vecmath"
)

// FixedCT is the traversal cost the paper pins to an arbitrary value of 10;
// CI and CB are only meaningful relative to it (§IV-A).
const FixedCT = 10.0

// Params bundles the SAH cost parameters.
type Params struct {
	CT float64 // node traversal cost
	CI float64 // triangle intersection cost
	CB float64 // primitive duplication cost
}

// DefaultParams returns the paper's base configuration for the cost model:
// CT=10 with the manually crafted C_base values CI=17, CB=10.
func DefaultParams() Params { return Params{CT: FixedCT, CI: 17, CB: 10} }

// LeafCost returns the cost of intersecting all n primitives of a leaf,
// Nb·CI (left-hand side of equation 2).
func (p Params) LeafCost(n int) float64 { return float64(n) * p.CI }

// SplitCost evaluates equation (1) for a node with surface area areaNode
// split into halves with surface areas areaL/areaR holding nl/nr primitives,
// nb primitives total before the split. areaNode must be positive.
func (p Params) SplitCost(areaNode, areaL, areaR float64, nl, nr, nb int) float64 {
	inv := 1 / areaNode
	return p.CT +
		areaL*inv*float64(nl)*p.CI +
		areaR*inv*float64(nr)*p.CI +
		float64(nl+nr-nb)*p.CB
}

// Split describes the best subdividing plane found for a node.
type Split struct {
	Axis vecmath.Axis // axis the plane is orthogonal to
	Pos  float64      // plane position along Axis
	Cost float64      // SAH(h,b) of this plane, equation (1)
	NL   int          // primitives overlapping the left half (incl. duplicates)
	NR   int          // primitives overlapping the right half (incl. duplicates)
}

// ShouldTerminate applies equation (2): subdivision stops when intersecting
// everything in place is no more expensive than the best split.
func (p Params) ShouldTerminate(n int, best Split) bool {
	return p.LeafCost(n) <= best.Cost
}

// splitCandidateValid rejects planes coincident with the node boundary:
// they cannot separate anything and would allow non-terminating recursion.
func splitCandidateValid(node vecmath.AABB, axis vecmath.Axis, pos float64) bool {
	return pos > node.Min.Axis(axis) && pos < node.Max.Axis(axis)
}

// PlaneSweep keeps the cheapest candidate plane of one node's split search.
// It is the Wald–Havran candidate evaluation, shared by all three searches
// — FindBestSplitSweepCancel, the sort-once builder's presorted event
// stream and the binned search's bin boundaries (with no planar
// primitives): the valid-plane check, both placements of the primitives
// lying in the plane, and the strict-< tie-break that keeps the first of
// equally cheap planes. Start one with NewPlaneSweep.
type PlaneSweep struct {
	p        Params
	node     vecmath.AABB
	areaNode float64
	n        int
	best     Split
	found    bool
}

// NewPlaneSweep starts a sweep over node, which holds n primitives. ok is
// false when no plane can win — a node of zero surface area or without
// primitives — and the caller skips the sweep.
func NewPlaneSweep(p Params, node vecmath.AABB, n int) (s PlaneSweep, ok bool) {
	s = PlaneSweep{p: p, node: node, areaNode: node.SurfaceArea(), n: n, best: Split{Cost: math.Inf(1)}}
	return s, s.areaNode > 0 && n > 0
}

// Plane evaluates the plane {axis = pos}: nl primitives overlap its left
// side only or both sides, nr its right side, and np lie in the plane.
// Planar primitives can go to either side; both placements are evaluated
// and the cheaper one kept.
func (s *PlaneSweep) Plane(axis vecmath.Axis, pos float64, nl, nr, np int) {
	if !splitCandidateValid(s.node, axis, pos) {
		return
	}
	// The child cells, as node.Split(axis, pos) builds them; a valid pos
	// lies strictly inside the node, so Split's clamp would be a no-op.
	l, r := s.node, s.node
	l.Max = l.Max.SetAxis(axis, pos)
	r.Min = r.Min.SetAxis(axis, pos)
	al, ar := l.SurfaceArea(), r.SurfaceArea()
	cL := s.p.SplitCost(s.areaNode, al, ar, nl+np, nr, s.n)
	cR := s.p.SplitCost(s.areaNode, al, ar, nl, nr+np, s.n)
	cost, dl, dr := cL, np, 0
	if cR < cL {
		cost, dl, dr = cR, 0, np
	}
	if cost < s.best.Cost {
		s.best = Split{Axis: axis, Pos: pos, Cost: cost, NL: nl + dl, NR: nr + dr}
		s.found = true
	}
}

// Best returns the cheapest plane seen, or (Split{Cost: +Inf}, false) when
// no valid plane was offered.
func (s *PlaneSweep) Best() (Split, bool) { return s.best, s.found }

// FindBestSplitSweep runs the event-sweep split search over all three axes.
// prims holds each primitive's bounds clipped to the node (empty boxes are
// ignored). It returns the minimum-cost split and false if no valid
// candidate plane exists.
func FindBestSplitSweep(p Params, node vecmath.AABB, prims []vecmath.AABB) (Split, bool) {
	return FindBestSplitSweepCancel(nil, p, node, prims)
}

// FindBestSplitSweepCancel is FindBestSplitSweep with cooperative
// cancellation: cc is checked once per axis, so a guarded build's deadline
// can fire between the three axes of even the root's search. A canceled
// search returns (Split{Cost: +Inf}, false); callers must check cc before
// trusting even that. A nil cc disables cancellation.
//
// Per axis, every non-empty box contributes either a start and an end key
// or one planar key, each an order-preserving uint64 of the coordinate
// (floatKey); the three streams are radix-sorted separately and merged.
// At each distinct position the sweep counts the ends, then the planars,
// then the starts there — the order in which sorting (pos, kind) events
// would group them — and offers the plane to PlaneSweep.
func FindBestSplitSweepCancel(cc *parallel.Canceler, p Params, node vecmath.AABB, prims []vecmath.AABB) (Split, bool) {
	sw, ok := NewPlaneSweep(p, node, len(prims))
	if !ok {
		return sw.best, false
	}
	n := len(prims)
	sc := getSweepScratch(n)
	defer sweepScratchPool.Put(sc)
	// keys[:n] holds the starts from the front and the planars from the
	// back (a box adds exactly one of the two, so they never meet),
	// keys[n:2n] the ends and keys[2n:3n] the radix sort's temp buffer.
	lows, highs, tmp := sc.keys[:n], sc.keys[n:2*n], sc.keys[2*n:3*n]
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		if cc.Canceled() {
			return Split{Cost: math.Inf(1)}, false
		}
		ns, np := 0, 0
		for _, b := range prims {
			if b.IsEmpty() {
				continue
			}
			lo, hi := b.Min.Axis(axis), b.Max.Axis(axis)
			if lo == hi {
				np++
				lows[n-np] = floatKey(lo)
			} else {
				lows[ns], highs[ns] = floatKey(lo), floatKey(hi)
				ns++
			}
		}
		if ns+np == 0 {
			continue
		}
		starts, planars, ends := lows[:ns], lows[n-np:], highs[:ns]
		radixSort(starts, tmp, &sc.count)
		radixSort(ends, tmp, &sc.count)
		radixSort(planars, tmp, &sc.count)

		sw.n = ns + np // Nb counts only the non-empty boxes (the same on every axis)
		nl, nr := 0, sw.n
		// Every start lies below its own end, so the starts run out no
		// later than the ends.
		var ie, ip, is int
		for ie < len(ends) || ip < len(planars) {
			pos := uint64(math.MaxUint64)
			if ie < len(ends) {
				pos = ends[ie]
			}
			if ip < len(planars) && planars[ip] < pos {
				pos = planars[ip]
			}
			if is < len(starts) && starts[is] < pos {
				pos = starts[is]
			}
			e0, p0, s0 := ie, ip, is
			for ie < len(ends) && ends[ie] == pos {
				ie++
			}
			for ip < len(planars) && planars[ip] == pos {
				ip++
			}
			for is < len(starts) && starts[is] == pos {
				is++
			}
			pEnd, pPlanar, pStart := ie-e0, ip-p0, is-s0

			// Primitives ending or lying exactly at pos leave the right set
			// before the plane at pos is evaluated.
			nr -= pEnd + pPlanar
			sw.Plane(axis, keyFloat(pos), nl, nr, pPlanar)
			// Primitives starting or lying at pos belong to the left set for
			// all later planes.
			nl += pStart + pPlanar
		}
	}
	return sw.Best()
}

// sweepScratch is the sweep's working memory: 3n keys (24 bytes per
// primitive) and the radix sort's digit histograms. Pooled because the
// recursive builders run the sweep once per node.
type sweepScratch struct {
	keys  []uint64
	count radixCounts
}

var sweepScratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// getSweepScratch returns a pooled scratch with room for n primitives.
func getSweepScratch(n int) *sweepScratch {
	sc := sweepScratchPool.Get().(*sweepScratch)
	if len(sc.keys) < 3*n {
		sc.keys = make([]uint64, 3*n)
	}
	return sc
}

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
// their canceler before trusting a false result. The sweep's candidate
// evaluation is PlaneSweep, which the sort-once builder's presorted sweep
// shares.
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

// eventKind orders coincident events so that the sweep sees ends before
// planars before starts at the same plane position.
type eventKind uint8

const (
	eventEnd eventKind = iota
	eventPlanar
	eventStart
)

// event is one endpoint of a primitive's (clipped) extent along an axis.
type event struct {
	pos  float64
	kind eventKind
}

// PlaneSweep keeps the cheapest candidate plane of one node's event sweep.
// It is the Wald–Havran candidate evaluation, shared by both sweeps — the
// per-node sort of FindBestSplitSweepCancel and the sort-once builder's
// presorted event stream: the valid-plane check, both placements of the
// primitives lying in the plane, and the strict-< tie-break that keeps the
// first of equally cheap planes. Start one with NewPlaneSweep.
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
	return FindBestSplitSweepCancel(nil, p, node, prims, 1)
}

// FindBestSplitSweepCancel is FindBestSplitSweep with a parallelism budget
// for the event sort and cooperative cancellation threaded into it. Sorting
// dominates the sweep's cost, so the builders hand the worker budget down
// for the topmost (largest) nodes; the sort is also the longest
// uninterruptible stretch of a top-level node's split search, and without a
// cancellation point a guarded build's deadline could not fire until it
// finished. A canceled search returns (Split{Cost: +Inf}, false); callers
// must check cc before trusting even that. A nil cc disables cancellation.
func FindBestSplitSweepCancel(cc *parallel.Canceler, p Params, node vecmath.AABB, prims []vecmath.AABB, workers int) (Split, bool) {
	sw, ok := NewPlaneSweep(p, node, len(prims))
	if !ok || cc.Canceled() {
		return sw.best, false
	}

	bufPtr := getEventBuf(2 * len(prims))
	events := *bufPtr
	defer func() {
		*bufPtr = events // retain grown capacity for reuse
		putEventBuf(bufPtr)
	}()
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		events = events[:0]
		n := 0
		for _, b := range prims {
			if b.IsEmpty() {
				continue
			}
			lo, hi := b.Min.Axis(axis), b.Max.Axis(axis)
			if lo == hi {
				events = append(events, event{lo, eventPlanar})
			} else {
				events = append(events, event{lo, eventStart}, event{hi, eventEnd})
			}
			n++
		}
		if n == 0 {
			continue
		}
		sortEvents(cc, events, workers)
		if cc.Canceled() {
			return Split{Cost: math.Inf(1)}, false
		}

		sw.n = n // Nb counts only the non-empty boxes (the same on every axis)
		nl, nr := 0, n
		for i := 0; i < len(events); {
			pos := events[i].pos
			var pEnd, pPlanar, pStart int
			for i < len(events) && events[i].pos == pos && events[i].kind == eventEnd {
				pEnd++
				i++
			}
			for i < len(events) && events[i].pos == pos && events[i].kind == eventPlanar {
				pPlanar++
				i++
			}
			for i < len(events) && events[i].pos == pos && events[i].kind == eventStart {
				pStart++
				i++
			}

			// Primitives ending or lying exactly at pos leave the right set
			// before the plane at pos is evaluated.
			nr -= pEnd + pPlanar
			sw.Plane(axis, pos, nl, nr, pPlanar)
			// Primitives starting or lying at pos belong to the left set for
			// all later planes.
			nl += pStart + pPlanar
		}
	}
	return sw.Best()
}

// sortEvents orders events by (pos, kind) so the sweep sees ends before
// planars before starts at coincident positions.
func sortEvents(cc *parallel.Canceler, ev []event, workers int) {
	parallel.SortFuncCancel(cc, ev, workers, func(a, b event) int {
		switch {
		case a.pos < b.pos:
			return -1
		case a.pos > b.pos:
			return 1
		}
		return int(a.kind) - int(b.kind)
	})
}

// eventBufPool recycles per-node event buffers: the recursive builders call
// the sweep once per node, and the allocation otherwise dominates the
// garbage produced during construction.
var eventBufPool = sync.Pool{New: func() any { return &[]event{} }}

// getEventBuf returns an empty event slice with at least the given capacity.
func getEventBuf(capacity int) *[]event {
	buf := eventBufPool.Get().(*[]event)
	if cap(*buf) < capacity {
		*buf = make([]event, 0, capacity)
	}
	*buf = (*buf)[:0]
	return buf
}

func putEventBuf(buf *[]event) { eventBufPool.Put(buf) }

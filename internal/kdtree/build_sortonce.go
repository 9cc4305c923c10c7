package kdtree

import (
	"slices"

	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/vecmath"
)

// AlgoSortOnce is the full O(N log N) construction of Wald & Havran ("On
// building fast kd-trees for ray tracing, and on doing that in O(N log N)",
// §4): candidate-plane events for all primitives and all three axes are
// generated and sorted ONCE; the recursion then classifies primitives
// against the chosen plane and splices the sorted event list into the
// children in linear time, never sorting again (except for the few
// re-clipped straddlers). The paper's node-level variant (§IV-A) uses the
// simpler per-node-sort formulation; this engine is the reference upgrade
// the same work describes, kept as a separate algorithm so the two can be
// benchmarked against each other (BenchmarkSortOnceVsPerNode).
//
// It runs on the depth-first engine, so subtrees parallelise exactly like
// the node-level builder: every node's state (slots, events,
// classification) is private, so tasks never share mutable data.
const AlgoSortOnce Algorithm = 101

// Event kinds and the per-slot classification of the splice step.
const (
	soEnd    uint8 = 0 // primitive extent ends at pos
	soPlanar uint8 = 1 // zero-extent primitive lies at pos
	soStart  uint8 = 2 // primitive extent starts at pos

	clsBoth  uint8 = 0 // straddles the plane: duplicated, events re-generated
	clsLeft  uint8 = 1 // entirely left: events spliced through
	clsRight uint8 = 2 // entirely right
)

// soEvent is one candidate plane: the endpoint of slot's clipped bounds
// along axis. Slots index the node's private item list, not global
// triangle ids, so sibling tasks never alias classification state.
type soEvent struct {
	pos  float64
	slot int32
	axis uint8
	kind uint8
}

// soLess orders events by (pos, axis, kind): the restriction to any single
// axis is then ordered by (pos, kind) with ends before planars before
// starts, which is what the sweep needs; grouping by (pos, axis) lets one
// pass evaluate all three axes.
func soLess(a, b soEvent) int {
	switch {
	case a.pos < b.pos:
		return -1
	case a.pos > b.pos:
		return 1
	}
	if a.axis != b.axis {
		return int(a.axis) - int(b.axis)
	}
	return int(a.kind) - int(b.kind)
}

// rootEvents generates and sorts the events of the root items, once.
func (c *buildCtx) rootEvents(a *arena, items []item) []soEvent {
	events := a.allocEvents(6 * len(items))[:0]
	for slot, it := range items {
		events = appendEvents(events, int32(slot), it.bounds)
	}
	parallel.SortFuncCancel(c.canceler(), events, c.cfg.Workers, soLess)
	return events
}

// appendEvents emits the (up to six) events of one slot's bounds.
func appendEvents(dst []soEvent, slot int32, b vecmath.AABB) []soEvent {
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		lo, hi := b.Min.Axis(axis), b.Max.Axis(axis)
		if lo == hi {
			dst = append(dst, soEvent{lo, slot, uint8(axis), soPlanar})
		} else {
			dst = append(dst,
				soEvent{lo, slot, uint8(axis), soStart},
				soEvent{hi, slot, uint8(axis), soEnd})
		}
	}
	return dst
}

// decideSortOnce finds the best split with a single pass over the node's
// sorted event list, running the three per-axis sweeps simultaneously, and
// applies the SAH termination rule (equation 2).
func (c *buildCtx) decideSortOnce(t subtree, depth int) (sah.Split, bool) {
	n := len(t.items)
	if n <= 1 || depth >= c.cfg.MaxDepth {
		return sah.Split{}, false
	}
	sw, ok := sah.NewPlaneSweep(c.params, t.bounds, n)
	if !ok {
		return sah.Split{}, false
	}
	var nl [3]int
	nr := [3]int{n, n, n}
	events := t.events
	for i := 0; i < len(events); {
		pos, axis := events[i].pos, events[i].axis
		var pEnd, pPlanar, pStart int
		for i < len(events) && events[i].pos == pos && events[i].axis == axis && events[i].kind == soEnd {
			pEnd++
			i++
		}
		for i < len(events) && events[i].pos == pos && events[i].axis == axis && events[i].kind == soPlanar {
			pPlanar++
			i++
		}
		for i < len(events) && events[i].pos == pos && events[i].axis == axis && events[i].kind == soStart {
			pStart++
			i++
		}
		nr[axis] -= pEnd + pPlanar
		sw.Plane(vecmath.Axis(axis), pos, nl[axis], nr[axis], pPlanar)
		nl[axis] += pStart + pPlanar
	}
	split, ok := sw.Best()
	if !ok || c.params.ShouldTerminate(n, split) {
		return sah.Split{}, false
	}
	return split, true
}

// spliceEvents is sort-once's partition step: it classifies t's slots
// against the plane and splices the sorted event list into the children in
// linear time, re-generating and merging in only the straddlers' events.
func (c *buildCtx) spliceEvents(a *arena, t subtree, split sah.Split, lb, rb vecmath.AABB) (leftItems, rightItems []item, leftEvents, rightEvents []soEvent) {
	items, events := t.items, t.events

	// Classify each slot against the plane using only the chosen axis's
	// events (Wald–Havran's flag pass): default straddling, overridden by
	// events proving the primitive lies entirely on one side.
	a.cls = ensureLen(a.cls, len(items))
	cls := a.cls
	for i := range cls {
		cls[i] = clsBoth
	}
	for _, e := range events {
		if vecmath.Axis(e.axis) != split.Axis {
			continue
		}
		switch e.kind {
		case soEnd:
			if e.pos <= split.Pos {
				cls[e.slot] = clsLeft
			}
		case soStart:
			if e.pos >= split.Pos {
				cls[e.slot] = clsRight
			}
		case soPlanar:
			if e.pos <= split.Pos {
				cls[e.slot] = clsLeft // planar-on-plane goes left
			} else {
				cls[e.slot] = clsRight
			}
		}
	}

	// Size the child windows: item capacities from the classification
	// (straddlers may still drop during re-narrowing, so these are upper
	// bounds), event capacities from the per-side event census.
	var nlCap, nrCap int
	for _, cl := range cls {
		switch cl {
		case clsLeft:
			nlCap++
		case clsRight:
			nrCap++
		default:
			nlCap++
			nrCap++
		}
	}
	var celCap, cerCap int
	for _, e := range events {
		switch cls[e.slot] {
		case clsLeft:
			celCap++
		case clsRight:
			cerCap++
		}
	}

	// Build child item lists and slot remaps. Straddlers are re-narrowed
	// (clip or box intersection per configuration); a straddler whose
	// narrowed half vanishes drops out of that child entirely.
	a.slotL = ensureLen(a.slotL, len(items))
	a.slotR = ensureLen(a.slotR, len(items))
	leftSlot, rightSlot := a.slotL, a.slotR
	leftItems = a.allocItems(nlCap)[:0]
	rightItems = a.allocItems(nrCap)[:0]
	leftNew := a.evNewL[:0]
	rightNew := a.evNewR[:0]

	for slot, it := range items {
		leftSlot[slot], rightSlot[slot] = -1, -1
		switch cls[slot] {
		case clsLeft:
			leftSlot[slot] = int32(len(leftItems))
			leftItems = append(leftItems, it)
		case clsRight:
			rightSlot[slot] = int32(len(rightItems))
			rightItems = append(rightItems, it)
		default: // straddler
			if b, ok := c.childBounds(it, lb); ok {
				ns := int32(len(leftItems))
				leftSlot[slot] = ns
				leftItems = append(leftItems, item{it.tri, b})
				leftNew = appendEvents(leftNew, ns, b)
			}
			if b, ok := c.childBounds(it, rb); ok {
				ns := int32(len(rightItems))
				rightSlot[slot] = ns
				rightItems = append(rightItems, item{it.tri, b})
				rightNew = appendEvents(rightNew, ns, b)
			}
		}
	}
	a.evNewL = leftNew[:0]
	a.evNewR = rightNew[:0]

	// Splice: one ordered pass distributes surviving events; straddler
	// replacements are sorted (few) and merged in.
	leftEvents = a.allocEvents(celCap)[:0]
	rightEvents = a.allocEvents(cerCap)[:0]
	for _, e := range events {
		switch cls[e.slot] {
		case clsLeft:
			e.slot = leftSlot[e.slot]
			leftEvents = append(leftEvents, e)
		case clsRight:
			e.slot = rightSlot[e.slot]
			rightEvents = append(rightEvents, e)
		}
	}
	leftEvents = mergeNewEvents(a, leftEvents, leftNew)
	rightEvents = mergeNewEvents(a, rightEvents, rightNew)
	return leftItems, rightItems, leftEvents, rightEvents
}

// mergeNewEvents sorts the regenerated straddler events and merges them
// with the already-ordered spliced window, returning the merged window
// (carved off the arena's event stack; the spliced window is simply
// abandoned until the node's release).
func mergeNewEvents(a *arena, spliced, fresh []soEvent) []soEvent {
	if len(fresh) == 0 {
		return spliced
	}
	slices.SortFunc(fresh, soLess)
	out := a.allocEvents(len(spliced) + len(fresh))[:0]
	i, j := 0, 0
	for i < len(spliced) && j < len(fresh) {
		if soLess(spliced[i], fresh[j]) <= 0 {
			out = append(out, spliced[i])
			i++
		} else {
			out = append(out, fresh[j])
			j++
		}
	}
	out = append(out, spliced[i:]...)
	out = append(out, fresh[j:]...)
	return out
}

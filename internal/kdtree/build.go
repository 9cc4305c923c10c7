package kdtree

import (
	"sync"

	"kdtune/internal/faultinject"
	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/vecmath"
)

// Build constructs an SAH kD-tree over tris with the given configuration,
// dispatching to the algorithm selected in cfg. The triangle slice is
// retained by reference; degenerate triangles are kept in leaves (they are
// harmless: intersection tests reject them) but contribute bounds like any
// other primitive only if finite.
//
// Build is the convenience wrapper over a fresh Builder; frame loops that
// rebuild every frame should retain a Builder and call its Build method so
// all construction scratch is reused.
func Build(tris []vecmath.Triangle, cfg Config) *Tree {
	return NewBuilder().Build(tris, cfg)
}

// item pairs a triangle index with the triangle's bounds restricted to the
// node currently holding it. Builders thread []item through the recursion
// so each partition step can reuse the already-narrowed boxes.
type item struct {
	tri    int32
	bounds vecmath.AABB
}

// buildCtx is the per-build shared state: immutable inputs plus the task
// pool, statistics counters, the owning Builder (arena source) and the
// abort guard (nil only transiently inside prepare; every build arms it).
type buildCtx struct {
	tris     []vecmath.Triangle
	cfg      Config
	params   sah.Params
	pool     *parallel.Pool
	counters buildCounters
	spawnCap int // recurse spawns child tasks above this depth; 0 for the breadth-first builders
	b        *Builder
	guard    *buildGuard
}

// rootItems computes the world bounds and the initial item list (skipping
// triangles without finite bounds). The list is carved off a's item stack
// and lives for the whole build.
func (c *buildCtx) rootItems(a *arena) ([]item, vecmath.AABB) {
	return c.rootItemsInto(a.allocItems(len(c.tris))[:0])
}

// rootItemsInto is rootItems appending into a caller-provided buffer (the
// breadth-first builders keep root items in their ping-pong level arrays
// rather than on an arena stack).
func (c *buildCtx) rootItemsInto(dst []item) ([]item, vecmath.AABB) {
	items := dst
	bounds := vecmath.EmptyAABB()
	for i, tr := range c.tris {
		b := tr.Bounds()
		if !b.Min.IsFinite() || !b.Max.IsFinite() {
			continue
		}
		items = append(items, item{tri: int32(i), bounds: b})
		bounds = bounds.Union(b)
	}
	return items, bounds
}

// makeLeaf emits a leaf into the arena and records statistics.
func (c *buildCtx) makeLeaf(a *arena, items []item, depth int) {
	if faultinject.Active() && c.guard != nil {
		faultinject.Check(faultinject.SiteBuildLeaf, int(c.guard.leafSeq.Add(1))-1)
	}
	a.emitLeaf(items)
	c.counters.noteLeaf(len(items), depth)
}

// makeDeferred emits a suspended node (lazy builder).
func (c *buildCtx) makeDeferred(a *arena, items []item, bounds vecmath.AABB, depth int) {
	a.emitDeferred(items, bounds)
	c.counters.noteDeferred(depth)
}

// childBounds returns the bounds of item it inside child box, either by
// re-clipping the source triangle (perfect splits) or by box intersection.
func (c *buildCtx) childBounds(it item, child vecmath.AABB) (vecmath.AABB, bool) {
	if c.cfg.UseClipping {
		return vecmath.ClipTriangleBounds(c.tris[it.tri], child)
	}
	b := it.bounds.Intersect(child)
	if b.IsEmpty() {
		return b, false
	}
	return b, true
}

// partitionItems splits items across the two child boxes lb, rb of split.
// Primitives overlapping both sides are duplicated (the (Nl+Nr−Nb)·CB term
// of equation 1); primitives lying exactly on the plane go left. The child
// lists are carved off a's item stack: a cheap counting pass sizes the
// windows exactly (the side tests are repeated without the childBounds
// narrowing, which can only drop items, so the counts are safe upper bounds
// — the SAH's NL/NR are not, since the sweep may count planar primitives on
// the other side).
func (c *buildCtx) partitionItems(a *arena, items []item, split sah.Split, lb, rb vecmath.AABB) (left, right []item) {
	var nl, nr int
	for i := range items {
		gl, gr := planeSides(items[i].bounds, split)
		if gl {
			nl++
		}
		if gr {
			nr++
		}
	}
	left = a.allocItems(nl)[:0]
	right = a.allocItems(nr)[:0]
	for _, it := range items {
		gl, gr := planeSides(it.bounds, split)
		if gl {
			if b, ok := c.childBounds(it, lb); ok {
				left = append(left, item{it.tri, b})
			}
		}
		if gr {
			if b, ok := c.childBounds(it, rb); ok {
				right = append(right, item{it.tri, b})
			}
		}
	}
	return left, right
}

// planeSides reports which sides of the split plane bounds b overlaps.
// Every partition applies this one rule: a primitive straddling the plane
// goes to both sides, one lying exactly on it goes left.
func planeSides(b vecmath.AABB, split sah.Split) (left, right bool) {
	lo, hi := b.Min.Axis(split.Axis), b.Max.Axis(split.Axis)
	return lo < split.Pos || (lo == hi && lo == split.Pos), hi > split.Pos
}

// decideSplitSweep runs the event sweep and applies the SAH termination rule
// (equation 2). A false result means "make a leaf". The bounds column is
// staged through a's scratch (dead once the search returns).
func (c *buildCtx) decideSplitSweep(a *arena, items []item, bounds vecmath.AABB, depth int) (sah.Split, bool) {
	if len(items) <= 1 || depth >= c.cfg.MaxDepth {
		return sah.Split{}, false
	}
	a.boxes = a.boxes[:0]
	for i := range items {
		a.boxes = append(a.boxes, items[i].bounds)
	}
	split, ok := sah.FindBestSplitSweepCancel(c.canceler(), c.params, bounds, a.boxes)
	if !ok || c.params.ShouldTerminate(len(items), split) {
		return sah.Split{}, false
	}
	return split, true
}

// decideSplitLevel is decideSplitSweep below nestedSequentialCutoff and the
// binned search at or above it, where its O(n) pass beats the sweep's sort
// and the binned search's fixed per-node cost (bins·axes candidate
// evaluations plus histogram allocation) no longer dominates. The nested
// builder and both phases of the in-place/lazy builders pick their splits
// with it. The cutoff depends only on the node size and workers only bounds
// the intra-node parallelism, so the returned split is identical for every
// worker count — a property the breadth-first builders' two phases rely on.
func (c *buildCtx) decideSplitLevel(a *arena, items []item, bounds vecmath.AABB, depth, workers int) (sah.Split, bool) {
	if len(items) < nestedSequentialCutoff {
		return c.decideSplitSweep(a, items, bounds, depth)
	}
	if depth >= c.cfg.MaxDepth {
		return sah.Split{}, false
	}
	split, ok := sah.FindBestSplitBinnedChunksCancel(c.canceler(), c.params, bounds, len(items), c.cfg.Bins, workers, c.cfg.BinGrain,
		func(bs *sah.BinSet, lo, hi int) {
			for i := lo; i < hi; i++ {
				bs.Add(items[i].bounds)
			}
		})
	if !ok || c.params.ShouldTerminate(len(items), split) {
		return sah.Split{}, false
	}
	return split, true
}

// subtree is one node's work for the depth-first engine: its items, its
// cell and, for sort-once only, its sorted event list.
type subtree struct {
	items  []item
	events []soEvent
	bounds vecmath.AABB
}

// buildDepthFirst is the entry of every depth-first builder — node-level,
// nested, median and sort-once. The node-level algorithm of §IV-A is the
// Wald–Havran recursion with the two child subtrees of an inner node handed
// to the task pool ("OpenMP tasks for every recursive call") while the
// recursion is shallower than the spawn budget derived from S; the others
// differ from it only in how one node decides its split and partitions its
// primitives (see decide and partition).
func (c *buildCtx) buildDepthFirst() vecmath.AABB {
	a := &c.b.main
	items, bounds := c.rootItems(a)
	if len(items) == 0 {
		return vecmath.AABB{}
	}
	root := subtree{items: items, bounds: bounds}
	if c.cfg.Algorithm == AlgoSortOnce {
		root.events = c.rootEvents(a, items)
	}
	c.recurse(a, root, 0)
	return bounds
}

// recurse is the one depth-first build engine. It emits the subtree over t
// into a in pre-order (self, left subtree, right subtree) so the left child
// is always self+1. While depth < spawnCap the children are built by
// spawned tasks into private arenas that are grafted back in the same
// order, preserving both the layout and bitwise determinism across worker
// counts. The in-place/lazy subtree tasks (spawnCap 0: they never spawn)
// and lazy expansion of deferred cells run through it too.
func (c *buildCtx) recurse(a *arena, t subtree, depth int) {
	if c.checkAbort(depth) {
		return
	}
	if c.shouldDefer(len(t.items), depth) {
		c.makeDeferred(a, t.items, t.bounds, depth)
		return
	}
	split, ok := c.decide(a, t, depth)
	if !ok {
		c.makeLeaf(a, t.items, depth)
		return
	}
	imark, emark := a.markItems(), a.markEvents()
	left, right := c.partition(a, t, split)
	// A canceled parallel partition returns unusable lists (skipped chunks
	// leave garbage counts); bail before acting on them.
	if c.aborted() {
		a.releaseEvents(emark)
		a.releaseItems(imark)
		return
	}
	// Guard against degenerate splits that make no progress (all primitives
	// duplicated into both children with no empty-space gain): they would
	// recurse forever below the SAH's radar.
	if len(left.items) == len(t.items) && len(right.items) == len(t.items) {
		a.releaseEvents(emark)
		a.releaseItems(imark)
		c.makeLeaf(a, t.items, depth)
		return
	}

	c.counters.noteInner()
	self := a.emitInner(split.Axis, split.Pos)
	if depth < c.spawnCap {
		la, ra := c.b.getArena(), c.b.getArena()
		var wg sync.WaitGroup
		wg.Add(2)
		//kdlint:nocancel subtree task polls the build Canceler via checkAbort at every node
		c.pool.Spawn(func() {
			defer wg.Done()
			c.recurse(la, left, depth+1)
		})
		//kdlint:nocancel subtree task polls the build Canceler via checkAbort at every node
		c.pool.Spawn(func() {
			defer wg.Done()
			c.recurse(ra, right, depth+1)
		})
		wg.Wait()
		a.graft(la)
		a.patchRight(self, a.graft(ra))
		c.b.putArena(la)
		c.b.putArena(ra)
	} else {
		c.recurse(a, left, depth+1)
		a.patchRight(self, int32(len(a.nodes)))
		c.recurse(a, right, depth+1)
	}
	a.releaseEvents(emark)
	a.releaseItems(imark)
}

// decide picks one node's split, or reports that it becomes a leaf.
func (c *buildCtx) decide(a *arena, t subtree, depth int) (sah.Split, bool) {
	switch c.cfg.Algorithm {
	case AlgoMedian:
		return c.decideMedian(t, depth)
	case AlgoSortOnce:
		return c.decideSortOnce(t, depth)
	case AlgoNested:
		return c.decideSplitLevel(a, t.items, t.bounds, depth, c.cfg.Workers)
	case AlgoInPlace, AlgoLazy:
		return c.decideSplitLevel(a, t.items, t.bounds, depth, 1)
	default: // AlgoNodeLevel and unknown values
		return c.decideSplitSweep(a, t.items, t.bounds, depth)
	}
}

// partition distributes t across the two children of split. The child
// lists are carved off a's stacks; recurse releases them after both
// children are emitted.
func (c *buildCtx) partition(a *arena, t subtree, split sah.Split) (left, right subtree) {
	lb, rb := t.bounds.Split(split.Axis, split.Pos)
	left.bounds, right.bounds = lb, rb
	switch {
	case c.cfg.Algorithm == AlgoSortOnce:
		left.items, right.items, left.events, right.events = c.spliceEvents(a, t, split, lb, rb)
	case c.cfg.Algorithm == AlgoNested && len(t.items) >= nestedSequentialCutoff:
		left.items, right.items = c.parallelPartition(a, t.items, split, lb, rb)
	default:
		left.items, right.items = c.partitionItems(a, t.items, split, lb, rb)
	}
	return left, right
}

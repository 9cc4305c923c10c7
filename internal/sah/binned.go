package sah

import (
	"math"
	"sync"

	"kdtune/internal/parallel"
	"kdtune/internal/vecmath"
)

// DefaultBins is the bin count per axis used by the binned split search.
// 32 bins is the common choice in the GPU/breadth-first builder literature
// (Danilewski et al.) and keeps the per-node footprint small.
const DefaultBins = 32

// BinSet accumulates primitive-extent histograms for one node, one set of
// three axes. The builders fill per-chunk private BinSets in parallel
// through FindBestSplitBinnedChunksCancel, which merges them — the
// parallel-histogram + prefix-scan structure of Choi et al.
type BinSet struct {
	bins  int
	node  vecmath.AABB
	start [3][]int // start[axis][bin]: primitives whose extent begins in bin
	end   [3][]int // end[axis][bin]:   primitives whose extent ends in bin
	count int      // primitives accumulated
}

// reset reinitialises bs as an empty histogram over node, reusing the bin
// storage when the resolution fits. It is what makes the binned split search
// allocation-free in the steady state (see binSetPool). bins < 2 falls back
// to DefaultBins.
func (bs *BinSet) reset(node vecmath.AABB, bins int) {
	if bins < 2 {
		bins = DefaultBins
	}
	bs.bins = bins
	bs.node = node
	bs.count = 0
	for a := 0; a < 3; a++ {
		if cap(bs.start[a]) < bins {
			bs.start[a] = make([]int, bins)
			bs.end[a] = make([]int, bins)
			continue
		}
		bs.start[a] = bs.start[a][:bins]
		bs.end[a] = bs.end[a][:bins]
		clear(bs.start[a])
		clear(bs.end[a])
	}
}

// binSetPool recycles histograms across split searches: every node of a
// build (tens of thousands per frame) runs one, and the six bin slices are
// the dominant per-node allocation of the binned builders.
var binSetPool = sync.Pool{New: func() any { return new(BinSet) }}

func getBinSet(node vecmath.AABB, bins int) *BinSet {
	bs := binSetPool.Get().(*BinSet)
	bs.reset(node, bins)
	return bs
}

// setsPool recycles the per-chunk pointer table of the parallel search. A
// pooled slice (rather than a fixed stack array) keeps the table off the
// heap even though it escapes into the ForChunks closure.
var setsPool = sync.Pool{New: func() any { return new([]*BinSet) }}

// binIndex maps a coordinate to its bin along axis, clamped into range.
func (bs *BinSet) binIndex(axis vecmath.Axis, pos float64) int {
	lo := bs.node.Min.Axis(axis)
	ext := bs.node.Max.Axis(axis) - lo
	if ext <= 0 {
		return 0
	}
	i := int(float64(bs.bins) * (pos - lo) / ext)
	if i < 0 {
		return 0
	}
	if i >= bs.bins {
		return bs.bins - 1
	}
	return i
}

// Add accumulates one primitive's bounds (already clipped to the node; an
// empty box is ignored).
func (bs *BinSet) Add(b vecmath.AABB) {
	if b.IsEmpty() {
		return
	}
	for a := vecmath.AxisX; a <= vecmath.AxisZ; a++ {
		bs.start[a][bs.binIndex(a, b.Min.Axis(a))]++
		bs.end[a][bs.binIndex(a, b.Max.Axis(a))]++
	}
	bs.count++
}

// merge folds other into bs. Both must cover the same node at the same
// resolution; this is the reduction step after per-chunk histogramming.
func (bs *BinSet) merge(other *BinSet) {
	if other.bins != bs.bins {
		panic("sah: merging BinSets with different resolutions")
	}
	for a := 0; a < 3; a++ {
		for i := 0; i < bs.bins; i++ {
			bs.start[a][i] += other.start[a][i]
			bs.end[a][i] += other.end[a][i]
		}
	}
	bs.count += other.count
}

// bestSplit scans the bin boundaries of all three axes (a prefix sum over
// the histograms), offering each to PlaneSweep with no planar primitives,
// and returns the minimum-SAH split, or false if the node has no interior
// bin boundary (e.g. zero-extent node or no primitives).
func (bs *BinSet) bestSplit(p Params) (Split, bool) {
	sw, ok := NewPlaneSweep(p, bs.node, bs.count)
	if !ok {
		return sw.Best()
	}
	for a := vecmath.AxisX; a <= vecmath.AxisZ; a++ {
		lo := bs.node.Min.Axis(a)
		ext := bs.node.Max.Axis(a) - lo
		if ext <= 0 {
			continue
		}
		nl, nEnded := 0, 0
		// Boundary after bin i sits at lo + (i+1)/bins * ext; the last
		// boundary coincides with the node face and is skipped.
		for i := 0; i < bs.bins-1; i++ {
			nl += bs.start[a][i]
			nEnded += bs.end[a][i]
			sw.Plane(a, lo+float64(i+1)/float64(bs.bins)*ext, nl, bs.count-nEnded, 0)
		}
	}
	return sw.Best()
}

// FindBestSplitBinned is the single-threaded binned search over prims: one
// histogram of bins per axis, best bin boundary returned.
func FindBestSplitBinned(p Params, node vecmath.AABB, prims []vecmath.AABB, bins int) (Split, bool) {
	return FindBestSplitBinnedChunksCancel(nil, p, node, len(prims), bins, 1, 0, func(bs *BinSet, lo, hi int) {
		for _, b := range prims[lo:hi] {
			bs.Add(b)
		}
	})
}

// DefaultBinGrain is the default minimum number of primitives binned per
// chunk; below it the fork-join overhead exceeds the histogramming work and
// the search runs inline on the caller. It is a registered tunable
// (kdtree.Config.BinGrain), not a constant of the algorithm: the break-even
// point depends on core count and memory system, exactly the class of
// hand-derived concurrency parameters Karcher & Guckes argue must be
// searched online.
const DefaultBinGrain = 2048

// FindBestSplitBinnedChunksCancel is the parallel histogram + reduction
// form of the binned search (Choi et al.): per-chunk private BinSets are
// filled concurrently and merged in ascending chunk order. fill must call
// bs.Add for every primitive in [lo, hi) — the caller keeps the tight loop
// so primitive storage stays behind one indirection per chunk, not per
// item. grain is the minimum primitives histogrammed per chunk; grain <= 0
// selects DefaultBinGrain.
//
// The result is identical to the sequential search for every worker count
// and every grain — bin counts are integers, bin bounds come from min/max,
// and the merge order is fixed by the explicit chunk index — which is what
// lets the builders guarantee worker-count-independent trees even with the
// grain tuned per build.
//
// Cancellation is cooperative: chunks not yet histogrammed when cc is
// canceled are skipped and the partial histograms are discarded, so a
// guarded build's abort propagates through the split search at chunk
// granularity. A canceled search returns (Split{Cost: +Inf}, false);
// callers must check cc before trusting even that. A nil cc disables
// cancellation.
func FindBestSplitBinnedChunksCancel(cc *parallel.Canceler, p Params, node vecmath.AABB, n, bins, workers, grain int, fill func(bs *BinSet, lo, hi int)) (Split, bool) {
	if grain <= 0 {
		grain = DefaultBinGrain
	}
	nChunks := parallel.ChunkCount(n, workers, grain)
	if nChunks == 0 || cc.Canceled() { // n <= 0: no primitives, no candidate planes
		return Split{Cost: math.Inf(1)}, false
	}
	sp := setsPool.Get().(*[]*BinSet)
	sets := *sp
	if cap(sets) < nChunks {
		sets = make([]*BinSet, nChunks)
	} else {
		sets = sets[:nChunks]
		clear(sets)
	}
	parallel.ForChunksCancel(cc, n, workers, grain, func(chunk, lo, hi int) {
		bs := getBinSet(node, bins)
		fill(bs, lo, hi)
		sets[chunk] = bs
	})
	if cc.Canceled() {
		// Skipped chunks left nil holes; recycle what was filled and bail.
		for _, bs := range sets {
			if bs != nil {
				binSetPool.Put(bs)
			}
		}
		*sp = sets[:0]
		setsPool.Put(sp)
		return Split{Cost: math.Inf(1)}, false
	}
	total := sets[0]
	for _, bs := range sets[1:] {
		if bs != nil {
			total.merge(bs)
			binSetPool.Put(bs)
		}
	}
	split, ok := total.bestSplit(p)
	binSetPool.Put(total)
	*sp = sets[:0]
	setsPool.Put(sp)
	return split, ok
}

package kdtree

import (
	"kdtune/internal/parallel"
	"kdtune/internal/sah"
	"kdtune/internal/vecmath"
)

// nestedSequentialCutoff is the node size below which the nested builder
// stops parallelising within nodes and decides and partitions like the
// node-level builder: for small primitive lists the fork-join and scan
// overhead exceeds the work (Choi et al. make the same transition from
// their "nested" to per-subtree processing once enough parallelism exists
// across subtrees). The in-place/lazy builders use the same cutoff to
// choose between the binned search and the sweep (decideSplitLevel).
//
// The nested parallel algorithm of §IV-B is the depth-first engine with
// subtree tasks exactly as in the node-level variant, plus parallel
// processing of the primitive list inside nodes at or above the cutoff: the
// per-node work — histogramming primitive extents (decideSplitLevel with
// the full worker budget) and partitioning the list (parallelPartition) —
// is expressed as parallel passes over primitive chunks followed by short
// serialised merges, the "sequence of parallel prefix operations"
// structure of the original algorithm.
const nestedSequentialCutoff = 2048

// sideFlag classifies one item against a split plane.
type sideFlag uint8

const (
	sideLeft sideFlag = 1 << iota
	sideRight
)

// parallelPartition distributes items into the two children using the
// classic three-phase structure: a parallel classification pass computing
// per-item output counts, exclusive prefix scans turning the counts into
// write offsets, and a parallel scatter pass. All scratch comes from the
// arena (it dies before the recursion descends); the child lists are carved
// off the item stack at the exact sizes the scans report.
func (c *buildCtx) parallelPartition(a *arena, items []item, split sah.Split, lb, rb vecmath.AABB) (left, right []item) {
	n := len(items)
	workers := c.cfg.Workers

	a.flags = ensureLen(a.flags, n)
	a.cntL = ensureLen(a.cntL, n)
	a.cntR = ensureLen(a.cntR, n)
	// narrowed caches the child bounds computed during classification so the
	// scatter pass does not redo the (potentially expensive) clipping.
	a.narrowed = ensureLen(a.narrowed, n)
	flags, cntL, cntR, boxes := a.flags, a.cntL, a.cntR, a.narrowed

	cc := c.canceler()
	parallel.ForCancel(cc, n, workers, func(loIdx, hiIdx int) {
		for i := loIdx; i < hiIdx; i++ {
			it := items[i]
			goesLeft, goesRight := planeSides(it.bounds, split)
			flags[i] = 0
			cntL[i], cntR[i] = 0, 0
			if goesLeft {
				if b, ok := c.childBounds(it, lb); ok {
					flags[i] |= sideLeft
					cntL[i] = 1
					boxes[i].l = b
				}
			}
			if goesRight {
				if b, ok := c.childBounds(it, rb); ok {
					flags[i] |= sideRight
					cntR[i] = 1
					boxes[i].r = b
				}
			}
		}
	})

	// The cancel flag is monotonic, so a clean check here proves every
	// classification chunk ran: the counts below are trustworthy. Skipped
	// chunks would leave garbage in cntL/cntR (ensureLen does not zero), and
	// scanning garbage could demand absurd allocations — hence the bail
	// before each consumer.
	if cc.Canceled() {
		return nil, nil
	}
	nl := parallel.ExclusiveScanCancel(cc, cntL, cntL, workers)
	nr := parallel.ExclusiveScanCancel(cc, cntR, cntR, workers)
	if cc.Canceled() {
		return nil, nil
	}
	left = a.allocItems(nl)
	right = a.allocItems(nr)

	parallel.ForCancel(cc, n, workers, func(loIdx, hiIdx int) {
		for i := loIdx; i < hiIdx; i++ {
			if flags[i]&sideLeft != 0 {
				left[cntL[i]] = item{items[i].tri, boxes[i].l}
			}
			if flags[i]&sideRight != 0 {
				right[cntR[i]] = item{items[i].tri, boxes[i].r}
			}
		}
	})
	return left, right
}

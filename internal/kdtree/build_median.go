package kdtree

import "kdtune/internal/sah"

// AlgoMedian is the classic non-SAH baseline: spatial-median splitting on
// the longest axis, terminating on a fixed leaf size. It ignores CI/CB (no
// cost model) and exists to quantify what the SAH — and therefore tuning
// the SAH's parameters — buys. It is not part of the paper's four variants
// but is the standard strawman in the kD-tree literature (cf. Wald–Havran
// §2) and backs the BenchmarkMedianVsSAH ablation. It runs on the
// depth-first engine with the node-level builder's subtree tasks.
const AlgoMedian Algorithm = 100

// medianLeafSize is the fixed termination threshold of the baseline.
const medianLeafSize = 16

// decideMedian splits at the spatial median of the longest axis until a
// node holds at most medianLeafSize primitives.
func (c *buildCtx) decideMedian(t subtree, depth int) (sah.Split, bool) {
	if len(t.items) <= medianLeafSize || depth >= c.cfg.MaxDepth {
		return sah.Split{}, false
	}
	axis := t.bounds.LongestAxis()
	return sah.Split{Axis: axis, Pos: (t.bounds.Min.Axis(axis) + t.bounds.Max.Axis(axis)) / 2}, true
}

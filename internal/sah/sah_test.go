package sah

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kdtune/internal/vecmath"
)

func v(x, y, z float64) vecmath.Vec3 { return vecmath.V(x, y, z) }

func box(x0, y0, z0, x1, y1, z1 float64) vecmath.AABB {
	return vecmath.NewAABB(v(x0, y0, z0), v(x1, y1, z1))
}

func TestSplitCostMatchesEquation1(t *testing.T) {
	p := Params{CT: 10, CI: 17, CB: 10}
	node := box(0, 0, 0, 2, 1, 1)
	l, r := node.Split(vecmath.AxisX, 1)
	an, al, ar := node.SurfaceArea(), l.SurfaceArea(), r.SurfaceArea()
	// 3 primitives, 2 left, 2 right => one duplicate.
	got := p.SplitCost(an, al, ar, 2, 2, 3)
	want := 10 + al/an*2*17 + ar/an*2*17 + 1*10
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("SplitCost = %v, want %v", got, want)
	}
}

func TestLeafCostAndTermination(t *testing.T) {
	p := Params{CT: 10, CI: 5, CB: 0}
	if p.LeafCost(4) != 20 {
		t.Fatalf("LeafCost = %v", p.LeafCost(4))
	}
	if !p.ShouldTerminate(2, Split{Cost: 100}) {
		t.Fatal("cheap leaf should terminate")
	}
	if p.ShouldTerminate(100, Split{Cost: 100}) {
		t.Fatal("expensive leaf should split")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.CT != 10 || p.CI != 17 || p.CB != 10 {
		t.Fatalf("DefaultParams = %+v", p)
	}
}

// twoClusterPrims places two tight clusters of primitive boxes with a gap at
// x=5; the optimal split is obviously inside the gap.
func twoClusterPrims() (vecmath.AABB, []vecmath.AABB) {
	node := box(0, 0, 0, 10, 1, 1)
	var prims []vecmath.AABB
	for i := 0; i < 8; i++ {
		o := float64(i) * 0.1
		prims = append(prims, box(o, 0, 0, o+0.5, 1, 1))    // cluster near x=0
		prims = append(prims, box(9.5-o, 0, 0, 10-o, 1, 1)) // cluster near x=10
	}
	return node, prims
}

func TestSweepFindsGapSplit(t *testing.T) {
	node, prims := twoClusterPrims()
	p := DefaultParams()
	s, ok := FindBestSplitSweep(p, node, prims)
	if !ok {
		t.Fatal("no split found")
	}
	if s.Axis != vecmath.AxisX {
		t.Fatalf("split axis = %v, want X", s.Axis)
	}
	if s.Pos < 1.2 || s.Pos > 8.8 {
		t.Fatalf("split pos = %v, expected inside the gap", s.Pos)
	}
	if s.NL != 8 || s.NR != 8 {
		t.Fatalf("NL/NR = %d/%d, want 8/8", s.NL, s.NR)
	}
	if s.Cost >= p.LeafCost(len(prims)) {
		t.Fatalf("gap split (cost %v) should beat leaf cost %v", s.Cost, p.LeafCost(len(prims)))
	}
}

func TestBinnedFindsGapSplit(t *testing.T) {
	node, prims := twoClusterPrims()
	p := DefaultParams()
	s, ok := FindBestSplitBinned(p, node, prims, 32)
	if !ok {
		t.Fatal("no split found")
	}
	if s.Axis != vecmath.AxisX || s.Pos < 1.2 || s.Pos > 8.8 {
		t.Fatalf("binned split = %+v, expected X inside the gap", s)
	}
}

// bruteForceBestSplit enumerates every primitive-boundary candidate plane on
// every axis directly from the definition of equation (1).
func bruteForceBestSplit(p Params, node vecmath.AABB, prims []vecmath.AABB) (Split, bool) {
	best := Split{Cost: math.Inf(1)}
	found := false
	an := node.SurfaceArea()
	n := 0
	for _, b := range prims {
		if !b.IsEmpty() {
			n++
		}
	}
	for a := vecmath.AxisX; a <= vecmath.AxisZ; a++ {
		for _, b := range prims {
			if b.IsEmpty() {
				continue
			}
			for _, pos := range []float64{b.Min.Axis(a), b.Max.Axis(a)} {
				if pos <= node.Min.Axis(a) || pos >= node.Max.Axis(a) {
					continue
				}
				// Count left/right membership: a primitive overlaps the
				// left side if min < pos, right side if max > pos; planar
				// primitives (min==max==pos) go to the cheaper side.
				nl, nr, planar := 0, 0, 0
				for _, q := range prims {
					if q.IsEmpty() {
						continue
					}
					lo, hi := q.Min.Axis(a), q.Max.Axis(a)
					if lo == hi && lo == pos {
						planar++
						continue
					}
					if lo < pos {
						nl++
					}
					if hi > pos {
						nr++
					}
				}
				l, r := node.Split(a, pos)
				al, ar := l.SurfaceArea(), r.SurfaceArea()
				cL := p.SplitCost(an, al, ar, nl+planar, nr, n)
				cR := p.SplitCost(an, al, ar, nl, nr+planar, n)
				cost := math.Min(cL, cR)
				if cost < best.Cost {
					best = Split{Axis: a, Pos: pos, Cost: cost}
					found = true
				}
			}
		}
	}
	return best, found
}

func TestSweepMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	p := Params{CT: 10, CI: 17, CB: 10}
	for trial := 0; trial < 200; trial++ {
		node := box(0, 0, 0, 4+r.Float64()*6, 4+r.Float64()*6, 4+r.Float64()*6)
		n := 2 + r.Intn(20)
		prims := make([]vecmath.AABB, 0, n)
		for i := 0; i < n; i++ {
			c := v(r.Float64()*node.Max.X, r.Float64()*node.Max.Y, r.Float64()*node.Max.Z)
			d := v(r.Float64(), r.Float64(), r.Float64())
			b := vecmath.NewAABB(c.Sub(d), c.Add(d)).Intersect(node)
			if b.IsEmpty() {
				continue
			}
			prims = append(prims, b)
		}
		if len(prims) == 0 {
			continue
		}
		got, okG := FindBestSplitSweep(p, node, prims)
		want, okW := bruteForceBestSplit(p, node, prims)
		if okG != okW {
			t.Fatalf("trial %d: sweep found=%v brute found=%v", trial, okG, okW)
		}
		if !okG {
			continue
		}
		if math.Abs(got.Cost-want.Cost) > 1e-9*(1+math.Abs(want.Cost)) {
			t.Fatalf("trial %d: sweep cost %v != brute cost %v (sweep %+v, brute %+v)",
				trial, got.Cost, want.Cost, got, want)
		}
	}
}

func TestSweepEmptySpaceCutoff(t *testing.T) {
	// A single small primitive in a huge node: the SAH should cut away the
	// empty space (split near the primitive boundary) rather than keep one
	// big leaf, when CI is high enough.
	node := box(0, 0, 0, 100, 1, 1)
	prims := []vecmath.AABB{box(0, 0, 0, 1, 1, 1)}
	p := Params{CT: 1, CI: 100, CB: 0}
	s, ok := FindBestSplitSweep(p, node, prims)
	if !ok {
		t.Fatal("no split found")
	}
	if s.Axis != vecmath.AxisX || math.Abs(s.Pos-1) > 1e-12 {
		t.Fatalf("expected empty-space split at x=1, got %+v", s)
	}
	if s.NL != 1 || s.NR != 0 {
		t.Fatalf("NL/NR = %d/%d, want 1/0", s.NL, s.NR)
	}
	if p.ShouldTerminate(1, s) {
		t.Fatal("empty-space split should be profitable here")
	}
}

func TestSweepNoCandidates(t *testing.T) {
	p := DefaultParams()
	if _, ok := FindBestSplitSweep(p, box(0, 0, 0, 1, 1, 1), nil); ok {
		t.Fatal("split found with no primitives")
	}
	// All primitive bounds coincide with node faces: no interior candidate.
	node := box(0, 0, 0, 1, 1, 1)
	prims := []vecmath.AABB{node, node}
	if s, ok := FindBestSplitSweep(p, node, prims); ok {
		t.Fatalf("split found with face-only candidates: %+v", s)
	}
	// Empty boxes are ignored.
	if _, ok := FindBestSplitSweep(p, node, []vecmath.AABB{vecmath.EmptyAABB()}); ok {
		t.Fatal("split found with only empty boxes")
	}
}

func TestSweepCountsStraddlers(t *testing.T) {
	node := box(0, 0, 0, 2, 1, 1)
	prims := []vecmath.AABB{
		box(0, 0, 0, 0.8, 1, 1),
		box(0.5, 0, 0, 1.5, 1, 1), // straddles any plane between 0.8 and 1.2
		box(1.2, 0, 0, 2, 1, 1),
	}
	p := Params{CT: 10, CI: 17, CB: 0}
	s, ok := FindBestSplitSweep(p, node, prims)
	if !ok {
		t.Fatal("no split")
	}
	if s.NL+s.NR < len(prims) {
		t.Fatalf("NL+NR = %d < N = %d", s.NL+s.NR, len(prims))
	}
}

func TestHighCBAvoidsStraddlingSplits(t *testing.T) {
	// Three boxes overlapping any interior X plane plus a free plane on Y.
	node := box(0, 0, 0, 1, 1, 1)
	prims := []vecmath.AABB{
		box(0, 0.0, 0, 1, 0.3, 1),
		box(0, 0.35, 0, 1, 0.6, 1),
		box(0, 0.7, 0, 1, 1, 1),
	}
	p := Params{CT: 1, CI: 50, CB: 1000}
	s, ok := FindBestSplitSweep(p, node, prims)
	if !ok {
		t.Fatal("no split")
	}
	if s.Axis != vecmath.AxisY {
		t.Fatalf("expected duplication-free Y split, got %+v", s)
	}
	if s.NL+s.NR != len(prims) {
		t.Fatalf("expected no duplicates, NL+NR = %d", s.NL+s.NR)
	}
}

// newBinSet is a fresh histogram over node, outside the pool.
func newBinSet(node vecmath.AABB, bins int) *BinSet {
	bs := &BinSet{}
	bs.reset(node, bins)
	return bs
}

func TestBinSetMergeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	node := box(0, 0, 0, 10, 10, 10)
	prims := make([]vecmath.AABB, 500)
	for i := range prims {
		c := v(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		d := v(r.Float64(), r.Float64(), r.Float64())
		prims[i] = vecmath.NewAABB(c.Sub(d), c.Add(d)).Intersect(node)
	}
	p := DefaultParams()

	whole := newBinSet(node, 32)
	for _, b := range prims {
		whole.Add(b)
	}

	partA, partB := newBinSet(node, 32), newBinSet(node, 32)
	for i, b := range prims {
		if i%2 == 0 {
			partA.Add(b)
		} else {
			partB.Add(b)
		}
	}
	partA.merge(partB)

	if partA.count != whole.count {
		t.Fatalf("merged count %d != whole count %d", partA.count, whole.count)
	}
	sWhole, okW := whole.bestSplit(p)
	sMerged, okM := partA.bestSplit(p)
	if okW != okM || sWhole != sMerged {
		t.Fatalf("merged best split %+v != whole %+v", sMerged, sWhole)
	}
}

func TestBinSetMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newBinSet(box(0, 0, 0, 1, 1, 1), 16).merge(newBinSet(box(0, 0, 0, 1, 1, 1), 32))
}

func TestBinnedApproximatesSweep(t *testing.T) {
	// Binned cost at its chosen plane must be within a modest factor of the
	// sweep optimum on random scenes (binning only loses plane resolution).
	r := rand.New(rand.NewSource(32))
	p := DefaultParams()
	for trial := 0; trial < 50; trial++ {
		node := box(0, 0, 0, 10, 10, 10)
		n := 50 + r.Intn(200)
		prims := make([]vecmath.AABB, 0, n)
		for i := 0; i < n; i++ {
			c := v(r.Float64()*10, r.Float64()*10, r.Float64()*10)
			d := v(r.Float64()*0.5, r.Float64()*0.5, r.Float64()*0.5)
			b := vecmath.NewAABB(c.Sub(d), c.Add(d)).Intersect(node)
			if !b.IsEmpty() {
				prims = append(prims, b)
			}
		}
		sw, okS := FindBestSplitSweep(p, node, prims)
		bn, okB := FindBestSplitBinned(p, node, prims, 64)
		if !okS || !okB {
			continue
		}
		if bn.Cost < sw.Cost-1e-9 {
			t.Fatalf("trial %d: binned (%v) beat exact sweep (%v)?", trial, bn.Cost, sw.Cost)
		}
		if bn.Cost > sw.Cost*1.5+p.CT {
			t.Fatalf("trial %d: binned cost %v far above sweep %v", trial, bn.Cost, sw.Cost)
		}
	}
}

func TestBinnedDegenerateNode(t *testing.T) {
	p := DefaultParams()
	// Zero-extent node: no valid split, must not panic or divide by zero.
	flat := box(0, 0, 0, 0, 0, 0)
	if _, ok := FindBestSplitBinned(p, flat, []vecmath.AABB{flat}, 8); ok {
		t.Fatal("split found in zero-extent node")
	}
	// Planar node (zero extent on one axis only) still splits on others.
	plane := box(0, 0, 0, 1, 1, 0)
	prims := []vecmath.AABB{box(0, 0, 0, 0.2, 1, 0), box(0.8, 0, 0, 1, 1, 0)}
	if s, ok := FindBestSplitBinned(p, plane, prims, 8); ok && s.Axis == vecmath.AxisZ {
		t.Fatalf("split on zero-extent axis: %+v", s)
	}
}

// referenceSweep is the event-sort formulation of the sweep that
// FindBestSplitSweepCancel replaced: per axis, one (pos, kind) event per
// box endpoint (one planar event for a zero-extent box), sorted with ends
// before planars before starts at equal positions, then swept group by
// group. It is kept here as the specification of the radix-sorted streams.
func referenceSweep(p Params, node vecmath.AABB, prims []vecmath.AABB) (Split, bool) {
	const (
		kindEnd = iota
		kindPlanar
		kindStart
	)
	type event struct {
		pos  float64
		kind int
	}
	sw, ok := NewPlaneSweep(p, node, len(prims))
	if !ok {
		return sw.Best()
	}
	var events []event
	for axis := vecmath.AxisX; axis <= vecmath.AxisZ; axis++ {
		events = events[:0]
		n := 0
		for _, b := range prims {
			if b.IsEmpty() {
				continue
			}
			lo, hi := b.Min.Axis(axis), b.Max.Axis(axis)
			if lo == hi {
				events = append(events, event{lo, kindPlanar})
			} else {
				events = append(events, event{lo, kindStart}, event{hi, kindEnd})
			}
			n++
		}
		if n == 0 {
			continue
		}
		slices.SortFunc(events, func(a, b event) int {
			switch {
			case a.pos < b.pos:
				return -1
			case a.pos > b.pos:
				return 1
			}
			return a.kind - b.kind
		})
		sw.n = n
		nl, nr := 0, n
		for i := 0; i < len(events); {
			pos := events[i].pos
			var pEnd, pPlanar, pStart int
			for i < len(events) && events[i].pos == pos && events[i].kind == kindEnd {
				pEnd++
				i++
			}
			for i < len(events) && events[i].pos == pos && events[i].kind == kindPlanar {
				pPlanar++
				i++
			}
			for i < len(events) && events[i].pos == pos && events[i].kind == kindStart {
				pStart++
				i++
			}
			nr -= pEnd + pPlanar
			sw.Plane(axis, pos, nl, nr, pPlanar)
			nl += pStart + pPlanar
		}
	}
	return sw.Best()
}

// gridPrims draws n boxes whose coordinates are snapped to a coarse grid
// around the origin, so starts, ends and planars of different boxes
// coincide and straddle zero, where both signed zeros occur. Some boxes
// are empty, and flatAxis >= 0 makes every box planar on that axis.
func gridPrims(r *rand.Rand, n int, flatAxis int) []vecmath.AABB {
	coord := func() float64 {
		c := float64(r.Intn(17)-8) * 0.5
		if c == 0 && r.Intn(2) == 0 {
			c = math.Copysign(0, -1)
		}
		return c
	}
	prims := make([]vecmath.AABB, n)
	for i := range prims {
		if r.Intn(20) == 0 {
			prims[i] = vecmath.EmptyAABB()
			continue
		}
		var lo, hi [3]float64
		for a := range lo {
			lo[a], hi[a] = coord(), coord()
			if hi[a] < lo[a] {
				lo[a], hi[a] = hi[a], lo[a]
			}
			if a == flatAxis || r.Intn(6) == 0 {
				hi[a] = lo[a]
			}
		}
		prims[i] = vecmath.AABB{Min: v(lo[0], lo[1], lo[2]), Max: v(hi[0], hi[1], hi[2])}
	}
	return prims
}

// TestSweepMatchesEventSortReference holds the radix-sorted sweep to the
// event-sort sweep exactly — the whole Split, not only its cost — on boxes
// that tie everywhere: grid-snapped, signed zeros, empty boxes, all-planar
// axes, 1 to 40000 boxes.
func TestSweepMatchesEventSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	p := DefaultParams()
	for trial := 0; trial < 600; trial++ {
		n := int(math.Exp(r.Float64() * math.Log(40000)))
		if trial%100 == 0 {
			n = 40000
		}
		flatAxis := -1
		if r.Intn(4) == 0 {
			flatAxis = r.Intn(3)
		}
		prims := gridPrims(r, n, flatAxis)
		node := box(-3.5-r.Float64(), -4, -4, 3.5+r.Float64(), 4, 4)
		if flatAxis >= 0 && r.Intn(2) == 0 {
			// A node without extent on the flat axis: no valid plane there.
			node.Min = node.Min.SetAxis(vecmath.Axis(flatAxis), 0)
			node.Max = node.Max.SetAxis(vecmath.Axis(flatAxis), 0)
		}
		got, okG := FindBestSplitSweep(p, node, prims)
		want, okW := referenceSweep(p, node, prims)
		if okG != okW || got != want {
			t.Fatalf("trial %d (n=%d, flat axis %d): sweep %+v, %v; reference %+v, %v",
				trial, n, flatAxis, got, okG, want, okW)
		}
	}
}

// TestRadixSortMatchesSlicesSort checks radixSort against slices.Sort on
// the keys of awkward floats, at lengths around radixCutoff and above.
func TestRadixSortMatchesSlicesSort(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), -1, 1, -2.5, 1e-300,
		5e-324, -5e-324, math.SmallestNonzeroFloat64 * 7, // subnormals
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	r := rand.New(rand.NewSource(35))
	draw := map[string]func() float64{
		"mixed": func() float64 {
			switch r.Intn(3) {
			case 0:
				return special[r.Intn(len(special))]
			case 1:
				return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-20))
			}
			return float64(r.Intn(8) - 4) // heavy duplicates
		},
		"duplicates": func() float64 { return float64(r.Intn(3)) * 0.25 },
		"all-equal":  func() float64 { return -7.75 },
	}
	var counts radixCounts
	for _, n := range []int{radixCutoff - 1, radixCutoff, radixCutoff + 1, 4096, 150000} {
		for _, name := range []string{"mixed", "duplicates", "all-equal"} {
			keys := make([]uint64, n)
			floats := make([]float64, n)
			for i := range keys {
				floats[i] = draw[name]()
				keys[i] = floatKey(floats[i])
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			radixSort(keys, make([]uint64, n), &counts)
			if !slices.Equal(keys, want) {
				t.Fatalf("%s n=%d: radixSort differs from slices.Sort", name, n)
			}
			// The key order is the float order, and keyFloat inverts
			// floatKey up to the sign of zero.
			slices.Sort(floats)
			for i, k := range keys {
				if f := keyFloat(k); f != floats[i] {
					t.Fatalf("%s n=%d: key %d decodes to %v, want %v", name, n, i, f, floats[i])
				}
			}
		}
	}
}

var sweepSink Split

// BenchmarkFindBestSplitSweep times one sweep over a 1000-box inner node
// and over a 75000-box root, the size of Sibenik.
func BenchmarkFindBestSplitSweep(b *testing.B) {
	for _, n := range []int{1000, 75000} {
		r := rand.New(rand.NewSource(36))
		node := box(0, 0, 0, 10, 10, 10)
		prims := make([]vecmath.AABB, n)
		for i := range prims {
			c := v(r.Float64()*10, r.Float64()*10, r.Float64()*10)
			d := v(r.Float64()*0.1, r.Float64()*0.1, r.Float64()*0.1)
			prims[i] = vecmath.NewAABB(c.Sub(d), c.Add(d)).Intersect(node)
		}
		p := DefaultParams()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sweepSink, _ = FindBestSplitSweep(p, node, prims)
			}
		})
	}
}

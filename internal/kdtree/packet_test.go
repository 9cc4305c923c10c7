package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"kdtune/internal/vecmath"
)

// packetTestRays mixes the coherence spectrum: common-origin fans (the
// renderer's primary packets), parallel offset rays (shadow-like), and
// fully random incoherent rays (maximal demotion pressure).
func packetTestRays(r *rand.Rand, n int, extent float64) []vecmath.Ray {
	rays := make([]vecmath.Ray, 0, n)
	eye := vecmath.V(-extent, extent/2, -extent)
	for len(rays) < n {
		switch len(rays) % 3 {
		case 0: // coherent fan from a shared eye point
			target := vecmath.V(r.Float64()*extent, r.Float64()*extent, r.Float64()*extent)
			rays = append(rays, vecmath.Towards(eye, target))
		case 1: // axis-aligned-ish parallel rays
			o := vecmath.V(r.Float64()*extent, r.Float64()*extent, -extent)
			rays = append(rays, vecmath.NewRay(o, vecmath.V(0, 0, 1)))
		default: // incoherent: random origin, random direction
			o := vecmath.V(r.Float64()*extent, r.Float64()*extent, r.Float64()*extent)
			d := vecmath.V(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
			rays = append(rays, vecmath.NewRay(o, d))
		}
	}
	return rays
}

func checkPacketAgainstScalar(t *testing.T, tree *Tree, rays []vecmath.Ray, width int, label string) {
	t.Helper()
	var ps PacketScratch
	tMin, tMax := 1e-9, math.Inf(1)
	for start := 0; start < len(rays); start += width {
		end := min(start+width, len(rays))
		pk := rays[start:end]

		tree.IntersectPacket(&ps, pk, tMin, tMax)
		for l, r := range pk {
			sh, sok := tree.Intersect(r, tMin, tMax)
			if ps.Ok[l] != sok ||
				math.Float64bits(ps.Hits[l].T) != math.Float64bits(sh.T) ||
				ps.Hits[l].Tri != sh.Tri ||
				math.Float64bits(ps.Hits[l].U) != math.Float64bits(sh.U) ||
				math.Float64bits(ps.Hits[l].V) != math.Float64bits(sh.V) {
				t.Fatalf("%s width=%d rays[%d:%d) lane %d: packet %+v ok=%v != scalar %+v ok=%v",
					label, width, start, end, l, ps.Hits[l], ps.Ok[l], sh, sok)
			}
		}

		tree.OccludedPacket(&ps, pk, tMin, tMax)
		for l, r := range pk {
			if socc := tree.Occluded(r, tMin, tMax); ps.Occ[l] != socc {
				t.Fatalf("%s width=%d rays[%d:%d) lane %d: packet occluded=%v != scalar %v",
					label, width, start, end, l, ps.Occ[l], socc)
			}
		}
	}
}

// TestPacketMatchesScalar: every lane of every packet must reproduce the
// scalar traversal bitwise, for all builders, all widths (ragged tails
// included — 301 rays never divide evenly), and mixed-coherence ray sets.
func TestPacketMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(4711))
	tris := randomTriangles(r, 900, 10, 0.25)
	rays := packetTestRays(r, 301, 10)
	for _, algo := range Algorithms {
		tree := Build(tris, testConfig(algo))
		for _, w := range []int{2, 4, 8, 16} {
			checkPacketAgainstScalar(t, tree, rays, w, algo.String())
		}
	}
}

// TestPacketInPlaneRays aims rays exactly along and inside split planes —
// the d==0, o==pos graze case whose scalar handling (push far with the FULL
// interval) the packet walk must reproduce per lane.
func TestPacketInPlaneRays(t *testing.T) {
	// A z-symmetric scene: triangles mirrored about z=0 force a split at
	// exactly z=0 and planar primitives on it.
	var tris []vecmath.Triangle
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 64; i++ {
		x, y := r.Float64()*8, r.Float64()*8
		tris = append(tris,
			vecmath.Tri(vecmath.V(x, y, 1+r.Float64()), vecmath.V(x+0.4, y, 1.5), vecmath.V(x, y+0.4, 1.2)),
			vecmath.Tri(vecmath.V(x, y, -1-r.Float64()), vecmath.V(x+0.4, y, -1.5), vecmath.V(x, y+0.4, -1.2)),
		)
	}
	// Planar triangles exactly on z=0.
	for i := 0; i < 8; i++ {
		x, y := float64(i), float64(i)/2
		tris = append(tris, vecmath.Tri(vecmath.V(x, y, 0), vecmath.V(x+1, y, 0), vecmath.V(x, y+1, 0)))
	}
	var rays []vecmath.Ray
	for i := 0; i < 48; i++ {
		// In-plane rays (z=0, dz=0), axis-parallel rays, and rays crossing
		// the plane at shallow angles.
		x := r.Float64() * 8
		rays = append(rays,
			vecmath.NewRay(vecmath.V(-2, x/2, 0), vecmath.V(1, 0.1*r.Float64(), 0)),
			vecmath.NewRay(vecmath.V(x, -2, 0.5), vecmath.V(0, 1, 0)),
			vecmath.NewRay(vecmath.V(x, x/2, -3), vecmath.V(0.01*r.NormFloat64(), 0.01*r.NormFloat64(), 1)),
		)
	}
	for _, algo := range Algorithms {
		tree := Build(tris, testConfig(algo))
		for _, w := range []int{4, 16} {
			checkPacketAgainstScalar(t, tree, rays, w, algo.String())
		}
	}
}

// TestPacketPermutationInvariance: a lane's result may not depend on which
// other rays share its packet or in what order — shuffle the packet, trace
// again, and require bitwise-identical per-ray records.
func TestPacketPermutationInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(31337))
	tris := randomTriangles(r, 600, 10, 0.3)
	tree := Build(tris, testConfig(AlgoInPlace))
	rays := packetTestRays(r, MaxPacketWidth, 10)

	var ps PacketScratch
	tMin, tMax := 1e-9, math.Inf(1)
	tree.IntersectPacket(&ps, rays, tMin, tMax)
	wantHits := ps.Hits
	wantOk := ps.Ok
	tree.OccludedPacket(&ps, rays, tMin, tMax)
	wantOcc := ps.Occ

	for trial := 0; trial < 16; trial++ {
		perm := r.Perm(len(rays))
		shuffled := make([]vecmath.Ray, len(rays))
		for i, p := range perm {
			shuffled[i] = rays[p]
		}
		tree.IntersectPacket(&ps, shuffled, tMin, tMax)
		for i, p := range perm {
			if ps.Ok[i] != wantOk[p] || ps.Hits[i] != wantHits[p] {
				t.Fatalf("trial %d: lane %d (ray %d): %+v ok=%v != %+v ok=%v under permutation",
					trial, i, p, ps.Hits[i], ps.Ok[i], wantHits[p], wantOk[p])
			}
		}
		tree.OccludedPacket(&ps, shuffled, tMin, tMax)
		for i, p := range perm {
			if ps.Occ[i] != wantOcc[p] {
				t.Fatalf("trial %d: lane %d (ray %d): occluded=%v != %v under permutation",
					trial, i, p, ps.Occ[i], wantOcc[p])
			}
		}
	}
}

// TestPacketLazyFirstTouch: packet traversal must expand suspended lazy
// subtrees itself (first contact through IntersectPacket/OccludedPacket,
// not via a prior scalar pass) and still match scalar results bitwise.
func TestPacketLazyFirstTouch(t *testing.T) {
	r := rand.New(rand.NewSource(271828))
	tris := randomTriangles(r, 1200, 10, 0.25)
	rays := packetTestRays(r, 128, 10)

	fresh := Build(tris, testConfig(AlgoLazy))
	if fresh.NumDeferred() == 0 {
		t.Fatal("lazy tree deferred nothing — test exercises no expansion")
	}
	checkPacketAgainstScalar(t, fresh, rays, 8, "lazy-first-touch")
	if fresh.NumExpanded() == 0 {
		t.Fatal("packet traversal expanded nothing")
	}

	// And occlusion-first on a second fresh tree.
	occFirst := Build(tris, testConfig(AlgoLazy))
	var ps PacketScratch
	tree := occFirst
	tree.OccludedPacket(&ps, rays[:16], 1e-9, math.Inf(1))
	for l, ray := range rays[:16] {
		if socc := tree.Occluded(ray, 1e-9, math.Inf(1)); ps.Occ[l] != socc {
			t.Fatalf("occlusion-first lane %d: packet %v != scalar %v", l, ps.Occ[l], socc)
		}
	}
}

// TestPacketZeroAlloc pins the steady-state allocation behaviour of packet
// traversal: after the scratch's first-use stack growth, tracing packets
// allocates nothing.
func TestPacketZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless under -race")
	}
	tree, _ := allocTestTree(t, AlgoSortOnce, 3000)
	r := rand.New(rand.NewSource(77))
	rays := make([]vecmath.Ray, 64)
	for i := range rays {
		origin := vecmath.V(r.Float64()*10, r.Float64()*10, -5)
		target := vecmath.V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		rays[i] = vecmath.Towards(origin, target)
	}
	var ps PacketScratch
	var hits int
	if avg := testing.AllocsPerRun(200, func() {
		for start := 0; start < len(rays); start += 16 {
			tree.IntersectPacket(&ps, rays[start:start+16], 1e-9, math.Inf(1))
			for l := 0; l < 16; l++ {
				if ps.Ok[l] {
					hits++
				}
			}
		}
	}); avg != 0 {
		t.Errorf("IntersectPacket allocates %.1f objects per batch, want 0", avg)
	}
	if hits == 0 {
		t.Fatal("no packet lane hit anything — the probe exercised nothing")
	}
	if avg := testing.AllocsPerRun(200, func() {
		for start := 0; start < len(rays); start += 16 {
			tree.OccludedPacket(&ps, rays[start:start+16], 1e-9, math.Inf(1))
		}
	}); avg != 0 {
		t.Errorf("OccludedPacket allocates %.1f objects per batch, want 0", avg)
	}
}

// TestPacketDegenerateInputs: empty packets, single-lane packets, rays that
// miss the bounds entirely, and zero-direction rays must not panic and must
// match scalar verdicts.
func TestPacketDegenerateInputs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tree := Build(randomTriangles(r, 200, 10, 0.3), testConfig(AlgoNodeLevel))
	var ps PacketScratch

	if d := tree.IntersectPacket(&ps, nil, 1e-9, math.Inf(1)); d != 0 {
		t.Fatalf("empty packet demoted %d", d)
	}
	tree.OccludedPacket(&ps, nil, 1e-9, math.Inf(1))

	rays := []vecmath.Ray{
		vecmath.NewRay(vecmath.V(100, 100, 100), vecmath.V(1, 0, 0)), // misses bounds
		vecmath.NewRay(vecmath.V(5, 5, -5), vecmath.V(0, 0, 0)),      // zero direction
		vecmath.NewRay(vecmath.V(5, 5, -5), vecmath.V(0, 0, 1)),      // axis-parallel hit-ish
		vecmath.NewRay(vecmath.V(-5, 5, 5), vecmath.V(1, 0, 0)),      // axis-parallel
	}
	checkPacketAgainstScalar(t, tree, rays, len(rays), "degenerate")
	checkPacketAgainstScalar(t, tree, rays, 1, "degenerate-width-1")

	defer func() {
		if recover() == nil {
			t.Fatal("oversized packet did not panic")
		}
	}()
	tree.IntersectPacket(&ps, make([]vecmath.Ray, MaxPacketWidth+1), 0, 1)
}

// TestPacketDemotionsCountEvents pins what the demotion count means: one
// event per lane per hand-off to the scalar core, not the number of lanes
// that ever fell back. Every lane of a coherent packet crosses two deferred
// cells without hitting anything, so each lane is handed off twice and the
// packet reports twice its width.
func TestPacketDemotionsCountEvents(t *testing.T) {
	// Two clusters of 20 thin triangles at opposite ends of the x range,
	// all off the line y = z = 0.5 the rays travel along. 40 >= R keeps the
	// root an inner node; each cluster alone is < R, so both children are
	// suspended.
	var tris []vecmath.Triangle
	for _, x0 := range []float64{0, 9} {
		for i := 0; i < 20; i++ {
			x := x0 + float64(i)*0.05
			z := 0.1
			if i%2 == 1 {
				z = 0.9
			}
			tris = append(tris, vecmath.Tri(vecmath.V(x, 0, z), vecmath.V(x+0.5, 1, z), vecmath.V(x+0.5, 0, z)))
		}
	}
	cfg := BaseConfig(AlgoLazy)
	cfg.R = 32
	tree := Build(tris, cfg)
	root := tree.nodes[tree.root]
	if root.kind() != kindInner || tree.nodes[tree.root+1].kind() != kindDeferred || tree.nodes[root.right()].kind() != kindDeferred {
		t.Fatal("fixture did not build an inner root over two deferred cells")
	}

	const lanes = 4
	rays := make([]vecmath.Ray, lanes)
	for l := range rays {
		rays[l] = vecmath.NewRay(vecmath.V(-1, 0.4+0.05*float64(l), 0.5), vecmath.V(1, 0, 0))
	}
	var ps PacketScratch
	if d := tree.IntersectPacket(&ps, rays, 1e-9, math.Inf(1)); d != 2*lanes {
		t.Fatalf("IntersectPacket reported %d demotions, want %d (two events per lane)", d, 2*lanes)
	}
	for l := range rays {
		if ps.Ok[l] {
			t.Fatalf("lane %d hit %+v; the fixture's rays must miss", l, ps.Hits[l])
		}
	}
}

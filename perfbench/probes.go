package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"kdtune/internal/autotune"
	"kdtune/internal/harness"
	"kdtune/internal/kdtree"
	"kdtune/internal/render"
	"kdtune/internal/sah"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// endToEndNames are the metrics of an untraced run, in every workload.
var endToEndNames = []string{"setup_s", "p50_ms", "p90_ms", "mean_ms", "ok_frac", "live_heap_mb"}

// perLayerNames are the metrics of a traced run, in every workload.
func perLayerNames() []string {
	names := []string{
		"scene.gen_ms", "scene.animate_ms",
		"sah.sweep_root_ms", "sah.binned_root_ms",
		"kdtree.intersect_ns_per_ray", "kdtree.occluded_ns_per_ray", "kdtree.packet_ns_per_ray",
		"kdtree.demotion_events_per_packet", "kdtree.range_us", "kdtree.nn_us",
		"render.ms.scalar", "render.ms.packet", "mrays_s.scalar", "mrays_s.packet",
		"render.primary_rays", "render.shadow_rays", "render.hits",
		"render.packets", "render.packet_rays", "render.demotion_events",
		"autotune.cycle_us", "tune_s", "harness.loop_overhead_ms", "harness.build_ms_sum",
		"harness.render_ms_sum", "autotune.tuned_frame_ms", "autotune.converged_frac",
		"autotune.iters_to_within_5pct", "autotune.aborted_builds", "autotune.fallback_frames",
		"serve.server_ms.p50", "serve.server_ms.p99", "serve.wait_ms", "serve.render_ms",
		"serve.build_ms", "serve.cache_hit_ratio", "serve.shed", "serve.timeouts",
		"serve.degraded", "serve.builds_aborted", "serve.range_ms", "serve.nn_ms",
		"serve.sched_lag_p99_ms",
		"trace.overhead_pct", "error_rate",
	}
	for _, a := range kdtree.Algorithms {
		for _, m := range []string{
			"frame_ms.", "frame_ms_1w.", "parallel.eff.", "render.share.",
			"kdtree.build_ms.", "kdtree.build_ms_1w.", "kdtree.allocs_per_build.",
			"kdtree.nodes.", "kdtree.leaf_refs.", "kdtree.max_depth.", "kdtree.sah_cost.",
		} {
			names = append(names, m+a.String())
		}
	}
	return names
}

// Probe sizes: small instances of the workloads a traced run did not
// measure, so every layer is covered on every workload.
const (
	probeRays    = 4096 // camera rays per traversal probe
	probeQueries = 64   // range and nn queries per probe
	probeReps    = 3    // repetitions of each direct probe; the median is reported
	probeCycles  = 500  // tuner Start/StopWithCost cycles
	probeW       = 160  // render probe resolution
	probeH       = 120
	probeIters   = 16 // tuning-session probe budget
)

// prober runs the per-layer probes of a traced run; ops collects the
// operations and checks they run.
type prober struct {
	o   options
	tr  *tracer
	lo  *layerObs
	log io.Writer
	ops *opLog
}

func newProber(o options, tr *tracer, lo *layerObs, log io.Writer) *prober {
	return &prober{o: o, tr: tr, lo: lo, log: log, ops: newOpLog(log)}
}

// run calls every layer directly on the named scene, runs a small instance
// of each workload whose layer metrics the traced measurement left empty,
// and derives the ratio metrics.
func (p *prober) run(sceneName string) error {
	fresh := func(name string) (*scene.Scene, error) { return loadScene(p.tr, p.lo, name) }
	sc, err := fresh(sceneName)
	if err != nil {
		return err
	}
	p.animate(sc)
	p.splitSearch(sc)
	if err := p.traverse(sc); err != nil {
		return err
	}
	if err := p.tunerCycle(); err != nil {
		return err
	}

	if !p.lo.has("frame_ms.in-place") {
		s, err := fresh(sceneName)
		if err != nil {
			return err
		}
		st, err := newRebuild(p.o, s, p.log)
		if err != nil {
			return err
		}
		p.ops.merge(st.measure(0, p.tr, p.lo))
	}
	if !p.lo.has("render.ms.scalar") {
		s, err := fresh(sceneName)
		if err != nil {
			return err
		}
		st, err := newWalk(p.o, p.tr, s, probeW, probeH, p.log)
		if err != nil {
			return err
		}
		p.ops.merge(st.measure(0, p.tr, p.lo))
	}
	if !p.lo.has("tune_s") {
		s, err := fresh("Toasters")
		if err != nil {
			return err
		}
		st := &tuneState{o: p.o, sc: s, iters: probeIters, w: 64, h: 48, log: p.log}
		p.ops.merge(st.measure(0, p.tr, p.lo))
	}
	if !p.lo.has("serve.render_ms") {
		st, err := newServe(p.o, p.tr, 1, p.log)
		if err != nil {
			return err
		}
		p.ops.merge(st.measure(0, p.tr, p.lo))
		st.close()
	}

	for _, a := range kdtree.Algorithms {
		n := a.String()
		eff := p.lo.median("kdtree.build_ms_1w."+n) / (float64(ncpu) * p.lo.median("kdtree.build_ms."+n))
		p.lo.add("parallel.eff."+n, "ratio", eff)
	}
	return nil
}

// animate times Triangles(frame) over the scene's frame sequence: the
// shared base slice for static scenes, rigid and deformed motion for
// dynamic ones.
func (p *prober) animate(sc *scene.Scene) {
	frames := min(sc.Frames, 32)
	for rep := 0; rep < probeReps; rep++ {
		d := p.tr.do(0, "scene", fmt.Sprintf("Triangles x%d", frames), func(int64) {
			for f := 0; f < frames; f++ {
				_ = sc.Triangles(f)
			}
		})
		p.lo.add("scene.animate_ms", "ms", ms(d)/float64(frames))
	}
}

// splitSearch times one root-node split search of each family on the
// scene's frame-0 triangle bounds.
func (p *prober) splitSearch(sc *scene.Scene) {
	tris := sc.Triangles(0)
	prims := make([]vecmath.AABB, len(tris))
	root := vecmath.EmptyAABB()
	for i, t := range tris {
		prims[i] = t.Bounds()
		root = root.Union(prims[i])
	}
	params := sah.DefaultParams()
	for rep := 0; rep < probeReps; rep++ {
		d := p.tr.do(0, "sah", "FindBestSplitSweep root", func(int64) { sah.FindBestSplitSweep(params, root, prims) })
		p.lo.add("sah.sweep_root_ms", "ms", ms(d))
		d = p.tr.do(0, "sah", "FindBestSplitBinned root", func(int64) {
			sah.FindBestSplitBinned(params, root, prims, sah.DefaultBins)
		})
		p.lo.add("sah.binned_root_ms", "ms", ms(d))
	}
}

// traverse times the tree's query kernels directly on an in-place C_base
// tree: closest hit, shadow any-hit and packet closest hit on the camera's
// rays, and range and nearest-neighbour queries at seeded points. Packet
// hits must equal the scalar hits.
func (p *prober) traverse(sc *scene.Scene) error {
	tree, _, err := build(p.tr, 0, kdtree.NewBuilder(), sc.Triangles(0), kdtree.AlgoInPlace, ncpu)
	if err != nil {
		return err
	}
	rays := render.CameraRays(sc.View, 4.0/3, probeRays)
	inf := math.Inf(1)
	hits := make([]kdtree.Hit, len(rays))
	hitOK := make([]bool, len(rays))
	var shadows []vecmath.Ray
	for i, r := range rays {
		if h, ok := tree.Intersect(r, 0, inf); ok {
			hits[i], hitOK[i] = h, true
			if len(sc.Lights) > 0 {
				shadows = append(shadows, vecmath.Towards(r.At(h.T), sc.Lights[0]))
			}
		}
	}
	rng := rand.New(rand.NewSource(p.o.seed))
	bounds := tree.Bounds()
	points := make([]vecmath.Vec3, probeQueries)
	for i := range points {
		points[i] = bounds.Min.Add(bounds.Diagonal().Mul(vecmath.V(rng.Float64(), rng.Float64(), rng.Float64())))
	}
	half := vecmath.Splat(bounds.Diagonal().Len() * 0.025)

	var ps kdtree.PacketScratch
	for rep := 0; rep < probeReps; rep++ {
		d := p.tr.do(0, "kdtree", "Intersect", func(int64) {
			for _, r := range rays {
				tree.Intersect(r, 0, inf)
			}
		})
		p.lo.add("kdtree.intersect_ns_per_ray", "ns", float64(d)/float64(len(rays)))
		d = p.tr.do(0, "kdtree", "Occluded", func(int64) {
			for _, r := range shadows {
				tree.Occluded(r, 1e-6, 1-1e-6)
			}
		})
		p.lo.add("kdtree.occluded_ns_per_ray", "ns", float64(d)/float64(max(len(shadows), 1)))

		demoted, packets, mismatched := 0, 0, 0
		d = p.tr.do(0, "kdtree", "IntersectPacket", func(int64) {
			for lo := 0; lo < len(rays); lo += kdtree.MaxPacketWidth {
				hi := min(lo+kdtree.MaxPacketWidth, len(rays))
				demoted += tree.IntersectPacket(&ps, rays[lo:hi], 0, inf)
				packets++
				for l := 0; l < hi-lo; l++ {
					if ps.Ok[l] != hitOK[lo+l] || (ps.Ok[l] && ps.Hits[l] != hits[lo+l]) {
						mismatched++
					}
				}
			}
		})
		if mismatched > 0 {
			p.ops.wrong("%s: %d packet hits differ from scalar hits", sc.Name, mismatched)
		} else {
			p.ops.doneAux("IntersectPacket probe", ms(d))
		}
		p.lo.add("kdtree.packet_ns_per_ray", "ns", float64(d)/float64(len(rays)))
		p.lo.add("kdtree.demotion_events_per_packet", "events/packet", float64(demoted)/float64(packets))

		d = p.tr.do(0, "kdtree", "RangeQuery", func(int64) {
			for _, c := range points {
				tree.RangeQuery(vecmath.NewAABB(c.Sub(half), c.Add(half)))
			}
		})
		p.lo.add("kdtree.range_us", "us", float64(d)/1e3/float64(len(points)))
		d = p.tr.do(0, "kdtree", "NearestNeighbor", func(int64) {
			for _, c := range points {
				tree.NearestNeighbor(c)
			}
		})
		p.lo.add("kdtree.nn_us", "us", float64(d)/1e3/float64(len(points)))
	}
	return nil
}

// tunerCycle times the tuner's own Start/StopWithCost cycle over the full
// co-tuned in-place search space, with a synthetic cost so no frame work
// is included.
func (p *prober) tunerCycle() error {
	v := harness.TunedVars{CI: 17, CB: 10, S: 3, R: 4096, PacketWidth: 1, TileSize: 16}
	reg, err := harness.ComposeRegistry(kdtree.AlgoInPlace, &v)
	if err != nil {
		return fmt.Errorf("compose registry: %w", err)
	}
	for rep := 0; rep < probeReps; rep++ {
		t := autotune.New(autotune.Options{Seed: p.o.seed + int64(rep)})
		if err := t.RegisterAll(reg); err != nil {
			return fmt.Errorf("register tunables: %w", err)
		}
		d := p.tr.do(0, "autotune", fmt.Sprintf("Start/StopWithCost x%d", probeCycles), func(int64) {
			for i := 0; i < probeCycles; i++ {
				t.Start()
				dc, db := float64(v.CI-40), float64(v.CB-20)
				t.StopWithCost(1 + dc*dc + db*db + float64(v.S+v.PacketWidth))
			}
		})
		p.lo.add("autotune.cycle_us", "us", float64(d)/1e3/probeCycles)
	}
	return nil
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/render"
	"kdtune/internal/sah"
	"kdtune/internal/scene"
	"kdtune/internal/serve"
	"kdtune/internal/vecmath"
)

// ncpu is the worker count of every multi-worker measurement.
var ncpu = runtime.NumCPU()

// loadScene generates a scene, as a span of the scene layer.
func loadScene(tr *tracer, lo *layerObs, name string) (*scene.Scene, error) {
	var sc *scene.Scene
	var err error
	d := tr.do(0, "scene", "ByName "+name, func(int64) { sc, err = scene.ByName(name) })
	if err != nil {
		return nil, fmt.Errorf("scene %s: %w", name, err)
	}
	lo.add("scene.gen_ms", "ms", ms(d))
	return sc, nil
}

// panPath is a seeded camera sweep: the eye stays where the scene puts it
// and the view direction swings up to panYaw radians either way around the
// up axis, one full swing over frames. The seed picks the frame the sweep
// starts from, so every seed renders the same set of views and a whole
// sweep costs the same; the camera never leaves the scene's interior and
// keeps the scene in view.
func panPath(v scene.View, seed int64, frames int) func(int) scene.View {
	start := int(uint64(seed) % uint64(frames))
	up := v.Up.Normalize()
	dir := v.LookAt.Sub(v.Eye)
	return func(f int) scene.View {
		a := panYaw * math.Sin(2*math.Pi*float64(start+f)/float64(frames))
		out := v
		out.LookAt = v.Eye.Add(rotate(dir, up, a))
		return out
	}
}

// panYaw is the sweep's half-width in radians.
const panYaw = 0.5

// rotate turns v by angle a around the unit axis k (Rodrigues' formula).
func rotate(v, k vecmath.Vec3, a float64) vecmath.Vec3 {
	c, s := math.Cos(a), math.Sin(a)
	return v.Scale(c).Add(k.Cross(v).Scale(s)).Add(k.Scale(k.Dot(v) * (1 - c)))
}

// build runs one guarded C_base build of algo at the given worker count on
// b, as a span of the kdtree layer.
func build(tr *tracer, parent int64, b *kdtree.Builder, tris []vecmath.Triangle, algo kdtree.Algorithm, workers int) (*kdtree.Tree, time.Duration, error) {
	cfg := kdtree.BaseConfig(algo)
	cfg.Workers = workers
	var tree *kdtree.Tree
	var err error
	d := tr.do(parent, "kdtree", fmt.Sprintf("BuildGuarded %s w%d", algo, workers), func(int64) {
		tree, err = b.BuildGuarded(tris, cfg, kdtree.Guard{})
	})
	if err != nil {
		return nil, d, fmt.Errorf("build %s at %d workers: %w", algo, workers, err)
	}
	return tree, d, nil
}

// renderFrame renders tree into im, as a span of the render layer, and
// returns the stats, the wall time and the frame checksum.
func renderFrame(tr *tracer, parent int64, im *render.Image, tree *kdtree.Tree, view scene.View, lights []vecmath.Vec3, opt render.Options) (render.RenderStats, time.Duration, uint64) {
	var st render.RenderStats
	d := tr.do(parent, "render", fmt.Sprintf("RenderInto %dx%d p%d w%d", opt.Width, opt.Height, opt.PacketWidth, opt.Workers), func(int64) {
		st = render.RenderInto(im, tree, view, lights, opt)
	})
	return st, d, serve.FrameChecksum(im)
}

// recordShape adds the exact tree-shape counts of a fresh build.
func recordShape(lo *layerObs, algo kdtree.Algorithm, tree *kdtree.Tree) {
	if lo == nil {
		return
	}
	s := tree.Stats()
	lo.add("kdtree.nodes."+algo.String(), "count", float64(s.NumNodes))
	lo.add("kdtree.leaf_refs."+algo.String(), "count", float64(s.LeafRefs))
	lo.add("kdtree.max_depth."+algo.String(), "count", float64(s.MaxDepth))
	lo.add("kdtree.sah_cost."+algo.String(), "cost", tree.SAHCost(sah.DefaultParams()))
}

// recordRender adds the time and throughput of one frame rendered in mode
// and, when counts is set, its exact render counters. Callers set counts
// for one fixed frame only, so the counts repeat exactly run to run.
func recordRender(lo *layerObs, mode string, st render.RenderStats, d time.Duration, counts bool) {
	if lo == nil {
		return
	}
	lo.add("render.ms."+mode, "ms", ms(d))
	lo.add("mrays_s."+mode, "Mrays/s", float64(st.PrimaryRays+st.ShadowRays)/d.Seconds()/1e6)
	if !counts {
		return
	}
	if mode != "packet" {
		lo.add("render.primary_rays", "count", float64(st.PrimaryRays))
		lo.add("render.shadow_rays", "count", float64(st.ShadowRays))
		lo.add("render.hits", "count", float64(st.Hits))
		return
	}
	lo.add("render.packets", "count", float64(st.Packets))
	lo.add("render.packet_rays", "count", float64(st.PacketRays))
	// Demotions counts events (a lane can demote more than once per walk),
	// so it is reported per packet, never as a fraction of lanes.
	lo.add("render.demotion_events", "count", float64(st.Demotions))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// expect applies the corruption hook to the expected side of a checksum
// comparison.
func expect(o options, sum uint64) uint64 {
	if o.corrupt != nil {
		return o.corrupt(sum)
	}
	return sum
}

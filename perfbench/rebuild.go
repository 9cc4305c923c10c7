package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/render"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// The rebuild frame is small on purpose: build is ~99% of it, so the
// workload measures the builders and the parallel substrate, not traversal.
const rebuildW, rebuildH = 64, 48

// rebuildState is the rebuild workload: one warm Builder rebuilds a static
// scene with each of the four builders every frame, at NumCPU workers and
// at one worker, and renders it.
type rebuildState struct {
	o     options
	sc    *scene.Scene
	tris  []vecmath.Triangle
	b     *kdtree.Builder
	im    *render.Image
	path  func(int) scene.View
	round int // rounds run so far; the camera path continues across measurements
	log   io.Writer
}

func setupRebuild(o options, log io.Writer) (state, error) {
	sc, err := loadScene(nil, nil, "Sibenik")
	if err != nil {
		return nil, err
	}
	return newRebuild(o, sc, log)
}

// newRebuild sets the workload up on sc and warms its Builder: each
// algorithm builds once so the arenas reach their working-set size.
func newRebuild(o options, sc *scene.Scene, log io.Writer) (*rebuildState, error) {
	s := &rebuildState{
		o: o, sc: sc, tris: sc.Triangles(0), b: kdtree.NewBuilder(),
		im: render.NewImage(rebuildW, rebuildH), path: panPath(sc.View, o.seed, 16), log: log,
	}
	for _, a := range kdtree.Algorithms {
		if _, _, err := build(nil, 0, s.b, s.tris, a, ncpu); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *rebuildState) probeScene() string { return s.sc.Name }
func (s *rebuildState) close()             {}

// measure runs whole rounds until d has passed (at least one). A round
// renders one camera frame with every builder, in a seeded order, first at
// NumCPU workers and then at one worker.
func (s *rebuildState) measure(d time.Duration, tr *tracer, lo *layerObs) *opLog {
	ops := newOpLog(s.log)
	rng := rand.New(rand.NewSource(s.o.seed))
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		view := s.path(s.round)
		s.round++
		for _, i := range rng.Perm(len(kdtree.Algorithms)) {
			algo := kdtree.Algorithms[i]
			if sum, ok := s.frame(tr, lo, ops, algo, ncpu, view, nil); ok {
				s.frame(tr, lo, ops, algo, 1, view, &sum)
			}
		}
	}
	return ops
}

// frame builds and renders one frame of algo at the given worker count,
// validates the tree and records the frame; its time is build plus render.
// want, for a one-worker frame, is the checksum of the same frame at NumCPU
// workers, which it must match bit for bit. frame returns the checksum and
// whether the frame passed.
func (s *rebuildState) frame(tr *tracer, lo *layerObs, ops *opLog, algo kdtree.Algorithm, workers int, view scene.View, want *uint64) (uint64, bool) {
	var m0, m1 runtime.MemStats
	var tree *kdtree.Tree
	var bd, rd time.Duration
	var sum uint64
	var err error
	tr.do(0, "bench", fmt.Sprintf("frame %s w%d", algo, workers), func(id int64) {
		if lo != nil {
			runtime.ReadMemStats(&m0)
		}
		tree, bd, err = build(tr, id, s.b, s.tris, algo, workers)
		if err != nil {
			return
		}
		if lo != nil && want == nil {
			// Between build and render, outside both timed spans: the
			// allocation count of the build and the tree shape before lazy
			// expansion.
			runtime.ReadMemStats(&m1)
			lo.add("kdtree.allocs_per_build."+algo.String(), "count", float64(m1.Mallocs-m0.Mallocs))
			recordShape(lo, algo, tree)
		}
		_, rd, sum = renderFrame(tr, id, s.im, tree, view, s.sc.Lights, render.Options{
			Width: rebuildW, Height: rebuildH, Workers: workers,
		})
	})
	if err != nil {
		ops.fail("%s: %v", s.sc.Name, err)
		return 0, false
	}
	if err := tree.Validate(); err != nil {
		ops.wrong("%s %s at %d workers: Validate: %v", s.sc.Name, algo, workers, err)
		return 0, false
	}
	name := algo.String()
	frame := ms(bd + rd)
	if want != nil {
		if sum != expect(s.o, *want) {
			ops.wrong("%s %s: checksum %016x at %d workers, %016x at %d workers", s.sc.Name, algo, sum, workers, *want, ncpu)
			return 0, false
		}
		ops.doneAux(name+"@1w", frame)
		lo.add("frame_ms_1w."+name, "ms", frame)
		lo.add("kdtree.build_ms_1w."+name, "ms", ms(bd))
		return sum, true
	}
	ops.done(name, frame, true)
	lo.add("frame_ms."+name, "ms", frame)
	lo.add("kdtree.build_ms."+name, "ms", ms(bd))
	lo.add("render.share."+name, "ratio", float64(rd)/float64(bd+rd))
	return sum, true
}

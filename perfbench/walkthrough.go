package main

import (
	"fmt"
	"io"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/render"
	"kdtune/internal/scene"
)

const (
	walkW, walkH = 640, 480
	walkPacket   = 8 // rays per packet on the packet path
	walkOrbit    = 8 // camera frames per sweep; measurements render whole sweeps
)

// walkState is the walkthrough workload: one in-place C_base tree, built
// during set-up, rendered along a seeded camera orbit, once on the scalar
// path and once with packets per camera frame.
type walkState struct {
	o    options
	sc   *scene.Scene
	tree *kdtree.Tree
	im   *render.Image
	w, h int
	log  io.Writer
}

func setupWalkthrough(o options, log io.Writer) (state, error) {
	sc, err := loadScene(nil, nil, "Sponza")
	if err != nil {
		return nil, err
	}
	return newWalk(o, nil, sc, walkW, walkH, log)
}

// newWalk installs the seeded orbit on sc and builds its tree.
func newWalk(o options, tr *tracer, sc *scene.Scene, w, h int, log io.Writer) (*walkState, error) {
	sc.WithCameraPath(walkOrbit, panPath(sc.View, o.seed, walkOrbit))
	tree, _, err := build(tr, 0, kdtree.NewBuilder(), sc.Triangles(0), kdtree.AlgoInPlace, ncpu)
	if err != nil {
		return nil, err
	}
	return &walkState{o: o, sc: sc, tree: tree, im: render.NewImage(w, h), w: w, h: h, log: log}, nil
}

func (s *walkState) probeScene() string { return s.sc.Name }
func (s *walkState) close()             {}

// measure renders whole camera sweeps until d has passed (at least one),
// so every measurement covers the same views. The packet frame must be
// bitwise identical to the scalar frame.
func (s *walkState) measure(d time.Duration, tr *tracer, lo *layerObs) *opLog {
	ops := newOpLog(s.log)
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		for f := 0; f < walkOrbit; f++ {
			s.cameraFrame(f, tr, lo, ops)
		}
	}
	return ops
}

// cameraFrame renders camera frame f scalar, then with packets.
func (s *walkState) cameraFrame(f int, tr *tracer, lo *layerObs, ops *opLog) {
	view := s.sc.ViewAt(f)
	tr.do(0, "bench", fmt.Sprintf("camera frame %d", f), func(id int64) {
		var want uint64
		for _, p := range []int{1, walkPacket} {
			st, rd, sum := renderFrame(tr, id, s.im, s.tree, view, s.sc.Lights, render.Options{
				Width: s.w, Height: s.h, Workers: ncpu, PacketWidth: p,
			})
			mode := "scalar"
			if p > 1 {
				mode = "packet"
				if sum != expect(s.o, want) {
					ops.wrong("%s camera frame %d: packet checksum %016x, scalar %016x", s.sc.Name, f, sum, want)
					continue
				}
			}
			want = sum
			ops.done(mode, ms(rd), true)
			recordRender(lo, mode, st, rd, f == 0)
		}
	})
}

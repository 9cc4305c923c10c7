// Camera path: the paper notes that "camera positioning, system load and
// other environment effects all influence the optimal configuration", which
// is why it tunes online even for static geometry. This example walks the
// camera through the Sibenik stand-in — wide nave view, then pressed up
// against a column (heavy occlusion) — with the lazy builder and drift
// detection enabled, and reports how the tuner reacts when the context
// flips.
package main

import (
	"fmt"
	"math"
	"time"

	"kdtune"
)

func main() {
	sc, err := kdtune.SceneByName("Sibenik")
	if err != nil {
		panic(err)
	}
	base := sc.View

	// 40 frames: the first half sweeps down the nave, the second half sits
	// almost inside a column so nearly everything is occluded.
	const frames = 40
	sc.WithCameraPath(frames, func(f int) kdtune.View {
		v := base
		if f < frames/2 {
			t := float64(f) / (frames / 2)
			v.Eye = base.Eye.Add(kdtune.V(8*t, 0.5*math.Sin(t*3), 0))
		} else {
			// Hard against the first column row: the occlusion regime.
			v.Eye = kdtune.V(-9.5, 2.0, -2.6)
			v.LookAt = kdtune.V(-9.0, 2.0, -2.75)
		}
		return v
	})

	fmt.Println("scene:", sc, "with a 2-phase camera path (nave sweep, then occluded close-up)")
	res := kdtune.RunExperiment(kdtune.RunConfig{
		Scene:     sc,
		Algorithm: kdtune.AlgoLazy,
		Search:    kdtune.SearchNelderMead,
		Width:     128, Height: 96,
		MaxIterations:   60,
		Seed:            5,
		RetuneThreshold: 1.5, RetuneWindow: 4,
	})

	for i, f := range res.Frames {
		if i%6 != 0 {
			continue
		}
		phase := "nave sweep "
		if f.FrameIndex >= frames/2 {
			phase = "occluded   "
		}
		// Params follows res.ParamNames: CI, CB, S, R lead for lazy.
		fmt.Printf("iter %2d  frame %2d  %s C=(%3d,%2d,%d,%4d)  total %8s\n",
			f.Iteration, f.FrameIndex, phase, f.Params[0], f.Params[1], f.Params[2], f.Params[3],
			f.Total.Round(time.Millisecond))
	}
	best := res.BestConfig()
	fmt.Printf("\nbest configuration found: C=(%v,%v,%d,%d)\n", best.CI, best.CB, best.S, best.R)
	fmt.Println("note how the occluded phase favours large R (lazier trees):")
	fmt.Println("rays never reach most of the cathedral, so unbuilt subtrees are free.")
}

package main

import (
	"io"
	"time"

	"kdtune/internal/harness"
	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
)

const (
	tuneIters          = 48 // frames per tuning session: the fixed iteration budget
	tuneW, tuneH       = 128, 96
	tuneRepeat         = 5  // every animation frame repeated, as in the paper
	tuneDeadlineFactor = 10 // build watchdog: abort builds slower than 10x the incumbent frame
	// tuneSessionFor sets how many sessions a measurement runs: one per
	// started tuneSessionFor of its budget (4 in 20 s). A fixed count, not
	// "until the budget has passed", keeps a slow host from dropping the
	// last session, whose tuner seed differs from the others'.
	tuneSessionFor = 5 * time.Second
)

// tuneState is the tune workload: whole Figure-4 sessions of harness.Run
// with the Nelder-Mead tuner over the 10-D co-tuned space, in-place
// builder, each session with its own tuner seed derived from the workload
// seed.
type tuneState struct {
	o       options
	sc      *scene.Scene
	iters   int
	w, h    int
	session int // sessions run so far; each gets the next tuner seed
	log     io.Writer
}

func setupTune(o options, log io.Writer) (state, error) {
	sc, err := loadScene(nil, nil, "Toasters")
	if err != nil {
		return nil, err
	}
	return &tuneState{o: o, sc: sc, iters: tuneIters, w: tuneW, h: tuneH, log: log}, nil
}

func (s *tuneState) probeScene() string { return s.sc.Name }
func (s *tuneState) close()             {}

// measure runs one whole session per started tuneSessionFor of d (at
// least one). Every frame of a session counts as one operation; a frame
// whose build the watchdog aborted completed degraded (from the median
// fallback tree).
func (s *tuneState) measure(d time.Duration, tr *tracer, lo *layerObs) *opLog {
	ops := newOpLog(s.log)
	n := max(1, int((d+tuneSessionFor-1)/tuneSessionFor))
	sessions, converged := 0, 0
	for i := 0; i < n; i++ {
		rc := harness.RunConfig{
			Scene: s.sc, Algorithm: kdtree.AlgoInPlace, Search: harness.SearchNelderMead,
			Workers: ncpu, Width: s.w, Height: s.h,
			Seed:          s.o.seed*1000 + int64(s.session),
			MaxIterations: s.iters, RepeatFrames: tuneRepeat, DeadlineFactor: tuneDeadlineFactor,
		}
		s.session++
		var res *harness.RunResult
		wall := tr.do(0, "harness", "Run NelderMead in-place", func(int64) { res = harness.Run(rc) })

		if unrendered := res.AbortedBuilds - res.FallbackFrames; len(res.Frames) != s.iters || unrendered != 0 {
			ops.wrong("%s session seed %d: %d of %d frames recorded, %d without a tree",
				s.sc.Name, rc.Seed, len(res.Frames), s.iters, unrendered)
			continue
		}
		var sum, build, rend time.Duration
		best := time.Duration(0)
		for _, f := range res.Frames {
			ops.done("frame", ms(f.Total), !f.Aborted)
			sum += f.Total
			build += f.Build
			rend += f.Render
			if !f.Aborted && (best == 0 || f.Total < best) {
				best = f.Total
			}
		}
		sessions++
		if res.ConvergedAt >= 0 {
			converged++
		}
		if lo == nil {
			continue
		}
		within := len(res.Frames)
		for i, f := range res.Frames {
			if !f.Aborted && float64(f.Total) <= 1.05*float64(best) {
				within = i + 1
				break
			}
		}
		lo.add("tune_s", "s", wall.Seconds())
		lo.add("harness.loop_overhead_ms", "ms", ms(wall-sum)/float64(len(res.Frames)))
		lo.add("harness.build_ms_sum", "ms", ms(build))
		lo.add("harness.render_ms_sum", "ms", ms(rend))
		lo.add("autotune.tuned_frame_ms", "ms", ms(res.SteadyStateTime()))
		lo.add("autotune.iters_to_within_5pct", "count", float64(within))
		lo.add("autotune.aborted_builds", "count", float64(res.AbortedBuilds))
		lo.add("autotune.fallback_frames", "count", float64(res.FallbackFrames))
	}
	if sessions > 0 {
		lo.add("autotune.converged_frac", "ratio", float64(converged)/float64(sessions))
	}
	return ops
}

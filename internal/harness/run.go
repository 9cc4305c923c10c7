package harness

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"kdtune/internal/autotune"
	"kdtune/internal/kdtree"
	"kdtune/internal/render"
	"kdtune/internal/sah"
	"kdtune/internal/scene"
)

// Table II tuning ranges.
const (
	CIMin, CIMax = 3, 101
	CBMin, CBMax = 0, 60
	SMin, SMax   = 1, 8
	RMin, RMax   = 16, 8192
)

// Render-side tuning ranges (not in the paper's Table II): packet width and
// render tile size, co-tuned with the tree parameters by the online search
// in the spirit of kernel-level tuners (packet traversal is bitwise
// identical to scalar at any width, so both are pure speed knobs). Both are
// power-of-two ranges; P = 1 is the scalar path, giving the tuner a safe
// retreat on scenes where packets do not pay.
const (
	PMin, PMax = 1, kdtree.MaxPacketWidth
	TMin, TMax = 8, 64
)

// Search selects how configurations are chosen during a run.
type Search int

// The three configuration policies compared in the paper.
const (
	SearchFixed      Search = iota // keep the provided base configuration
	SearchNelderMead               // AtuneRT: random seeding + Nelder-Mead
	SearchExhaustive               // grid walk (§V-D4)
)

// RunConfig describes one tuning/measurement run of the Figure 4 workflow.
type RunConfig struct {
	Scene     *scene.Scene
	Algorithm kdtree.Algorithm
	Search    Search

	Workers       int   // parallelism budget (platform simulation); <=0 = all
	Width, Height int   // render resolution (default 192x144)
	Seed          int64 // tuner RNG seed

	// MaxIterations bounds the number of frames processed. For static
	// scenes the loop additionally stops PostConverge frames after the
	// tuner converges (the paper repeats until convergence).
	MaxIterations int
	PostConverge  int

	// RepeatFrames repeats every animation frame this many times, the
	// paper's trick for dynamic scenes whose sequences are too short for
	// convergence ("we artificially extend the sequence by repeating every
	// frame 5 times").
	RepeatFrames int

	// ExhaustiveStrides coarsens the §V-D4 grid, positionally per Table II
	// parameter: CI, CB, S, R. At most four entries, none negative; a
	// missing trailing stride (or 0) means full resolution, and the R
	// stride is ignored on grids without R. nil = full grid. The exhaustive
	// walk covers only the paper's tree parameters; every other tunable
	// stays at its base value there.
	ExhaustiveStrides []int

	// PacketWidth and TileSize are the base render configuration: rays per
	// traversal packet (1 = scalar) and the square tile edge of the packet
	// path. SearchNelderMead co-tunes both (ranges [PMin, PMax] and
	// [TMin, TMax]); SearchFixed and SearchExhaustive keep them as given.
	// Zero selects the defaults (scalar rendering, 16-pixel tiles).
	PacketWidth int
	TileSize    int

	// Base is the configuration used by SearchFixed and as the speedup
	// reference; zero-value selects kdtree.BaseConfig(Algorithm).
	Base kdtree.Config

	// RetuneThreshold/RetuneWindow enable the tuner's drift detection
	// (restart the search when the converged configuration degrades), for
	// scenes whose context shifts mid-run — e.g. camera paths. Zero
	// disables, matching the paper's main experiments.
	RetuneThreshold float64
	RetuneWindow    int

	// DeadlineFactor arms a per-frame build watchdog: each guarded build
	// gets Guard.Deadline = DeadlineFactor × the fastest successful frame
	// total observed so far (the incumbent). Exploration probes that blow
	// past any sane budget — a pathological (CI, CB) region driving the SAH
	// into million-node trees — are aborted, rendered via the median-split
	// fallback, and reported to the tuner as censored samples instead of
	// stalling the loop. <=0 disables the watchdog; the first frame always
	// runs unguarded-by-deadline (there is no incumbent yet).
	DeadlineFactor float64

	// BuildGuard supplies static guard limits (MaxDepth, MaxArenaBytes, or
	// a fixed Deadline floor) applied to every build of the run. The
	// watchdog deadline is merged in on top: the tighter deadline wins.
	BuildGuard kdtree.Guard
}

// FrameRecord is the measurement of one frame (one Start/Stop cycle).
type FrameRecord struct {
	Iteration  int
	FrameIndex int
	// Params is the full registered parameter vector the frame ran with, in
	// RunResult.ParamNames order.
	Params []int
	Build  time.Duration
	Render time.Duration
	Total  time.Duration
	// Aborted marks a frame whose guarded build hit a Guard limit; the
	// frame was still rendered, from a median-split fallback tree, and its
	// Build/Total include both the aborted attempt and the fallback build.
	Aborted bool
}

// RunResult aggregates a run.
type RunResult struct {
	Config         RunConfig
	Frames         []FrameRecord
	ConvergedAt    int // iteration index of convergence, -1 if never
	Restarts       int // drift-triggered search restarts (§V-D4)
	AbortedBuilds  int // guarded builds stopped by a Guard limit
	FallbackFrames int // frames rendered from the median-split fallback tree
	BestTotal      time.Duration

	// ParamNames names every registered tunable of the run in registration
	// order (the dimension order of FrameRecord.Params), and TunedParams is
	// the full named best-found vector — tuned dimensions carry the search
	// optimum, untuned ones their base values. BestConfig assembles the
	// build configuration from it.
	ParamNames  []string
	TunedParams map[string]int

	// Packet-path render counters summed over all frames (see
	// render.RenderStats); Demotions/PacketRays is the run's demotion rate.
	Packets    int
	Demotions  int
	PacketRays int
}

// normalize fills RunConfig defaults.
func (rc RunConfig) normalize() RunConfig {
	if rc.Width <= 0 {
		rc.Width = 192
	}
	if rc.Height <= 0 {
		rc.Height = rc.Width * 3 / 4
	}
	if rc.MaxIterations <= 0 {
		rc.MaxIterations = 150
	}
	if rc.PostConverge <= 0 {
		rc.PostConverge = 10
	}
	if rc.RepeatFrames <= 0 {
		if rc.Scene != nil && rc.Scene.IsDynamic() {
			rc.RepeatFrames = 5 // §V-C
		} else {
			rc.RepeatFrames = 1
		}
	}
	if rc.PacketWidth <= 0 {
		rc.PacketWidth = 1
	}
	if rc.TileSize <= 0 {
		rc.TileSize = 16
	}
	if rc.Base.CI == 0 {
		rc.Base = kdtree.BaseConfig(rc.Algorithm)
	}
	rc.Base.Algorithm = rc.Algorithm
	rc.Base.Workers = rc.Workers
	// The substrate tunables need concrete base values: they seed the tuned
	// program variables and are what untuned searches run with.
	if rc.Base.Bins < 2 {
		rc.Base.Bins = sah.DefaultBins
	}
	if rc.Base.ScatterGrain <= 0 {
		rc.Base.ScatterGrain = kdtree.DefaultScatterGrain
	}
	if rc.Base.BinGrain <= 0 {
		rc.Base.BinGrain = sah.DefaultBinGrain
	}
	if rc.Base.SplitBias < 0 {
		rc.Base.SplitBias = 0
	}
	return rc
}

// maxRunResolution bounds the render resolution Validate accepts; a single
// frame buffer past 16k×16k is an input error, not a measurement.
const maxRunResolution = 1 << 14

// Validate reports every way the run configuration is unusable before any
// work starts. Zero values that normalize fills with defaults (resolution,
// iteration budget, ...) are accepted; contradictory or non-finite values
// are not. Run calls it and panics on error, so a harness misconfiguration
// fails at the top of the run instead of as a hung loop or a nil-scene
// crash frames later.
func (rc RunConfig) Validate() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	check(rc.Scene != nil, "Scene is nil")
	check(rc.Width >= 0 && rc.Width <= maxRunResolution, "Width %d outside [0, %d]", rc.Width, maxRunResolution)
	check(rc.Height >= 0 && rc.Height <= maxRunResolution, "Height %d outside [0, %d]", rc.Height, maxRunResolution)
	check(rc.MaxIterations >= 0, "MaxIterations %d negative", rc.MaxIterations)
	check(rc.PostConverge >= 0, "PostConverge %d negative", rc.PostConverge)
	check(rc.RepeatFrames >= 0, "RepeatFrames %d negative", rc.RepeatFrames)
	check(!math.IsNaN(rc.RetuneThreshold) && !math.IsInf(rc.RetuneThreshold, 0),
		"RetuneThreshold %v is not finite", rc.RetuneThreshold)
	check(rc.RetuneWindow >= 0, "RetuneWindow %d negative", rc.RetuneWindow)
	check(!math.IsNaN(rc.DeadlineFactor) && !math.IsInf(rc.DeadlineFactor, 0) && !(rc.DeadlineFactor < 0),
		"DeadlineFactor %v must be finite and non-negative", rc.DeadlineFactor)
	check(rc.PacketWidth >= 0 && rc.PacketWidth <= kdtree.MaxPacketWidth,
		"PacketWidth %d outside [0, %d]", rc.PacketWidth, kdtree.MaxPacketWidth)
	check(rc.TileSize >= 0 && rc.TileSize <= maxRunResolution, "TileSize %d outside [0, %d]", rc.TileSize, maxRunResolution)
	check(rc.BuildGuard.Deadline >= 0, "BuildGuard.Deadline %v negative", rc.BuildGuard.Deadline)
	check(rc.BuildGuard.MaxDepth >= 0, "BuildGuard.MaxDepth %d negative", rc.BuildGuard.MaxDepth)
	check(rc.BuildGuard.MaxArenaBytes >= 0, "BuildGuard.MaxArenaBytes %d negative", rc.BuildGuard.MaxArenaBytes)
	check(len(rc.ExhaustiveStrides) <= len(tableII),
		"ExhaustiveStrides has %d entries, want at most %d (CI, CB, S, R)", len(rc.ExhaustiveStrides), len(tableII))
	check(!slices.ContainsFunc(rc.ExhaustiveStrides, func(s int) bool { return s < 0 }),
		"ExhaustiveStrides %v has a negative stride", rc.ExhaustiveStrides)
	if err := rc.Base.Validate(); err != nil {
		errs = append(errs, err) // the zero Base ("use defaults") passes
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("harness: invalid run config: %w", errors.Join(errs...))
}

// TunedVars bundles the tuned program variables of one run: the registered
// tunables point into these fields, so the search mutates them directly and
// the per-frame build/render configuration is assembled from them. The zero
// value is not useful — use NewTunedVars to seed from a RunConfig.
type TunedVars struct {
	CI, CB, S, R int // Table II cost-model parameters

	// Build-side concurrency tunables (kdtree.RegisterBuildTunables).
	Bins, ScatterGrain, BinGrain, SplitBias int

	// Render-side packet tunables (render.RegisterTunables).
	PacketWidth, TileSize int
}

// NewTunedVars seeds the tuned variables from the run config's base
// configuration, with the defaults Run fills in for zero fields — the base
// vector a run starts from and SearchFixed measures.
func NewTunedVars(rc RunConfig) TunedVars {
	rc = rc.normalize()
	return TunedVars{
		CI: int(rc.Base.CI), CB: int(rc.Base.CB), S: rc.Base.S, R: rc.Base.R,
		Bins: rc.Base.Bins, ScatterGrain: rc.Base.ScatterGrain,
		BinGrain: rc.Base.BinGrain, SplitBias: rc.Base.SplitBias,
		PacketWidth: rc.PacketWidth, TileSize: rc.TileSize,
	}
}

// BuildConfig assembles the build configuration of the current tuned values
// for a run of rc.
func (v *TunedVars) BuildConfig(rc RunConfig) kdtree.Config {
	return kdtree.Config{
		Algorithm:    rc.Algorithm,
		CI:           float64(v.CI),
		CB:           float64(v.CB),
		S:            v.S,
		R:            v.R,
		Workers:      rc.Workers,
		Bins:         v.Bins,
		ScatterGrain: v.ScatterGrain,
		BinGrain:     v.BinGrain,
		SplitBias:    v.SplitBias,
	}
}

// tableII names the paper's Table II cost-model parameters in the exhaustive
// walk's positional order (the order of ExhaustiveStrides). R is registered
// only for the lazy builder, so the walk is 3-D or 4-D.
var tableII = []string{"CI", "CB", "S", "R"}

// ComposeRegistry composes the full co-tuned search space of one run over v:
// the Table II cost parameters (CI, CB, S, and R for the lazy builder), then
// the build-side concurrency tunables (B, G, GB, SB), then the render-side
// packet parameters (P, T). Every subsystem registers through the same
// autotune.Registry mechanism, and the registration order here is the
// canonical dimension order of RunResult.ParamNames and FrameRecord.Params.
func ComposeRegistry(algo kdtree.Algorithm, v *TunedVars) (*autotune.Registry, error) {
	reg := autotune.NewRegistry()
	tree := []autotune.Tunable{
		{Name: "CI", Target: &v.CI, Min: CIMin, Max: CIMax, Step: 1,
			Desc: "SAH triangle intersection cost"},
		{Name: "CB", Target: &v.CB, Min: CBMin, Max: CBMax, Step: 1,
			Desc: "SAH primitive duplication cost"},
		{Name: "S", Target: &v.S, Min: SMin, Max: SMax, Step: 1,
			Desc: "max subtrees per thread (task spawn budget)"},
	}
	if algo.HasR() {
		tree = append(tree, autotune.Tunable{
			Name: "R", Target: &v.R, Min: RMin, Max: RMax, Scale: autotune.ScalePow2,
			Desc: "lazy minimal node resolution (primitives)",
		})
	}
	for _, tn := range tree {
		if err := reg.Register(tn); err != nil {
			return nil, err
		}
	}
	if err := kdtree.RegisterBuildTunables(reg, &v.Bins, &v.ScatterGrain, &v.BinGrain, &v.SplitBias); err != nil {
		return nil, err
	}
	if err := render.RegisterTunables(reg, &v.PacketWidth, &v.TileSize); err != nil {
		return nil, err
	}
	return reg, nil
}

// newTuner builds the run's search over reg, or returns nil for
// SearchFixed. Nelder–Mead owns the full co-tuned space. The exhaustive walk
// stays on the Table II subset of the same registry: composing the
// substrate dimensions in would explode the §V-D4 comparison from
// thousands of points to millions, and ExhaustiveStrides keeps its
// positional (CI, CB, S, R) meaning.
func newTuner(rc RunConfig, reg *autotune.Registry) (*autotune.Tuner, error) {
	switch rc.Search {
	case SearchNelderMead:
		tuner := autotune.New(autotune.Options{
			Seed:            rc.Seed,
			RetuneThreshold: rc.RetuneThreshold,
			RetuneWindow:    rc.RetuneWindow,
		})
		return tuner, tuner.RegisterAll(reg)
	case SearchExhaustive:
		return autotune.NewExhaustiveTuner(autotune.Options{Seed: rc.Seed}, reg.Subset(tableII...), rc.ExhaustiveStrides)
	}
	return nil, nil
}

// Run executes the Figure 4 workflow: per frame, apply the configuration
// under test, rebuild the kD-tree for the frame's geometry, render, and
// report total frame time (m_a = t_c + t_r) to the search. Builds run
// guarded (see DeadlineFactor and BuildGuard): a build stopped by a Guard
// limit is replaced by a median-split fallback build so the frame still
// renders, and the cycle is reported to the tuner as a censored sample.
// Run panics on an invalid RunConfig (see Validate).
func Run(rc RunConfig) *RunResult {
	if err := rc.Validate(); err != nil {
		panic(err)
	}
	rc = rc.normalize()
	res := &RunResult{Config: rc, ConvergedAt: -1}

	// The tuned program variables, initialised to the base configuration.
	// Every registered tunable points into vars; the searches mutate them
	// through the registry. The base snapshot seeds the reported vector:
	// dimensions the search never moves keep their base values.
	vars := NewTunedVars(rc)
	reg, err := ComposeRegistry(rc.Algorithm, &vars)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	res.ParamNames = reg.Names()
	res.TunedParams = reg.Snapshot()
	tuner, err := newTuner(rc, reg)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}

	// One Builder and one framebuffer for the whole run: every frame rebuilds
	// into the same arenas and renders into the same pixels, so the steady
	// state of the loop allocates (almost) nothing.
	builder := kdtree.NewBuilder()
	im := render.NewImage(rc.Width, rc.Height)

	// The watchdog incumbent: fastest successful (non-aborted) frame total
	// so far. The deadline for each guarded build derives from it, so the
	// budget tracks what this scene at this resolution actually costs.
	var incumbent time.Duration
	guardFor := func() kdtree.Guard {
		g := rc.BuildGuard
		if rc.DeadlineFactor > 0 && incumbent > 0 {
			d := time.Duration(rc.DeadlineFactor * float64(incumbent))
			if d <= 0 {
				// A sub-nanosecond budget truncates to 0, which Guard reads
				// as "no deadline"; keep the watchdog armed instead.
				d = 1
			}
			if g.Deadline <= 0 || d < g.Deadline {
				g.Deadline = d
			}
		}
		return g
	}

	frameSeq := frameSequence(rc)
	postLeft := rc.PostConverge
	for iter := 0; iter < rc.MaxIterations; iter++ {
		frame := frameSeq(iter)

		if tuner != nil {
			tuner.Start()
		}
		cfg := vars.BuildConfig(rc)
		if err := cfg.Validate(); err != nil {
			// Tuner probes stay inside Table II, far within the hard
			// limits; anything else (a corrupted Base leaking through) is
			// repaired rather than crashing the loop mid-run.
			cfg = cfg.Clamped()
		}

		tris := rc.Scene.Triangles(frame)
		t0 := time.Now()
		tree, err := builder.BuildGuarded(tris, cfg, guardFor())
		aborted := err != nil
		if aborted {
			// Graceful degradation: the guarded build was stopped (deadline,
			// depth, memory, or an isolated worker panic). Rebuild with the
			// spatial-median builder — cheap, SAH-free, bounded — on the
			// same Builder (its arenas survive an abort intact), so every
			// frame renders even while the tuner probes pathological
			// configurations.
			res.AbortedBuilds++
			fcfg := cfg
			fcfg.Algorithm = kdtree.AlgoMedian
			// The fallback itself runs guarded too (zero Guard still contains
			// worker panics): if even the median build fails, the frame is
			// recorded but not rendered, rather than crashing the run.
			tree, _ = builder.BuildGuarded(tris, fcfg, kdtree.Guard{})
			if tree != nil {
				res.FallbackFrames++
			}
		}
		tBuild := time.Since(t0)
		if tree != nil {
			st := render.RenderInto(im, tree, rc.Scene.ViewAt(frame), rc.Scene.Lights, render.Options{
				Width: rc.Width, Height: rc.Height, Workers: rc.Workers,
				PacketWidth: vars.PacketWidth, TileSize: vars.TileSize,
			})
			res.Packets += st.Packets
			res.Demotions += st.Demotions
			res.PacketRays += st.PacketRays
		}
		total := time.Since(t0)

		if tuner != nil {
			if aborted {
				// No real measurement exists for this configuration; the
				// tuner records a penalty so the search reflects away from
				// the region instead of re-probing it.
				tuner.StopAborted()
			} else {
				tuner.Stop()
			}
		}
		if !aborted && (incumbent == 0 || total < incumbent) {
			incumbent = total
		}
		res.Frames = append(res.Frames, FrameRecord{
			Iteration: iter, FrameIndex: frame,
			Params: reg.Vector(),
			Build:  tBuild, Render: total - tBuild, Total: total,
			Aborted: aborted,
		})

		if tuner != nil && tuner.Converged() {
			if res.ConvergedAt < 0 {
				res.ConvergedAt = iter
			}
			// For static scenes, keep measuring a little longer for stable
			// post-convergence numbers, then stop; dynamic scenes keep
			// running to the iteration budget (the context keeps changing).
			// An exhausted exhaustive grid has nothing left to explore
			// either way.
			contextChanges := rc.Scene.IsDynamic() || rc.Scene.CameraPath != nil
			if !contextChanges || rc.Search == SearchExhaustive {
				postLeft--
				if postLeft <= 0 {
					break
				}
			}
		}
	}

	// The best-found vector: tuned dimensions carry the search optimum;
	// dimensions the search never moved (everything under SearchFixed, the
	// substrate/render dimensions under SearchExhaustive) keep the base
	// snapshot taken before the loop.
	if tuner != nil {
		res.Restarts = tuner.Restarts()
		if best, ok := tuner.BestByName(); ok {
			for k, v := range best {
				res.TunedParams[k] = v
			}
		}
	}
	res.BestTotal = res.SteadyStateTime()
	return res
}

// frameSequence maps iteration index to animation frame following §V-C:
// static scenes repeat frame 0; dynamic scenes walk the sequence with each
// frame repeated RepeatFrames times, wrapping around.
func frameSequence(rc RunConfig) func(iter int) int {
	if !rc.Scene.IsDynamic() && rc.Scene.CameraPath == nil {
		return func(int) int { return 0 }
	}
	total := rc.Scene.Frames * rc.RepeatFrames
	return func(iter int) int {
		return (iter % total) / rc.RepeatFrames
	}
}

// BestConfig assembles the run's best-found vector (TunedParams) into a
// build configuration: the Table II parameters and the substrate fields
// (bins, grains, split bias). R falls back to the base configuration's
// when the run did not register it (every builder but lazy).
func (r *RunResult) BestConfig() kdtree.Config {
	tp := r.TunedParams
	cfg := kdtree.Config{
		Algorithm:    r.Config.Algorithm,
		CI:           float64(tp["CI"]),
		CB:           float64(tp["CB"]),
		S:            tp["S"],
		R:            r.Config.Base.R,
		Workers:      r.Config.Workers,
		Bins:         tp["B"],
		ScatterGrain: tp["G"],
		BinGrain:     tp["GB"],
		SplitBias:    tp["SB"],
	}
	if v, ok := tp["R"]; ok {
		cfg.R = v
	}
	return cfg
}

// SteadyStateTime returns the median frame time of the run's last third —
// the post-convergence behaviour, robust to the exploration phase and to
// measurement outliers.
func (r *RunResult) SteadyStateTime() time.Duration {
	if len(r.Frames) == 0 {
		return 0
	}
	tail := r.Frames[len(r.Frames)*2/3:]
	ds := make([]time.Duration, len(tail))
	for i, f := range tail {
		ds[i] = f.Total
	}
	return MedianDuration(ds)
}

// SpeedupTrace returns, per iteration, base/t_i — the convergence curve of
// Figure 8 for a single run (callers average traces across repetitions).
func (r *RunResult) SpeedupTrace(base time.Duration) []float64 {
	out := make([]float64, len(r.Frames))
	for i, f := range r.Frames {
		if f.Total > 0 {
			out[i] = float64(base) / float64(f.Total)
		}
	}
	return out
}

// MeasureFixed measures the scene/algorithm under a fixed configuration:
// the denominator of every speedup in the paper. It renders `frames` frames
// (cycling animation frames for dynamic scenes) and returns the median
// frame time.
func MeasureFixed(rc RunConfig, frames int) time.Duration {
	rc = rc.normalize()
	rc.Search = SearchFixed
	rc.MaxIterations = frames
	res := Run(rc)
	ds := make([]time.Duration, len(res.Frames))
	for i, f := range res.Frames {
		ds[i] = f.Total
	}
	return MedianDuration(ds)
}

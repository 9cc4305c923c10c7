package harness

import (
	"fmt"
	"io"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
)

// Opts are the shared experiment knobs. The defaults reproduce the paper's
// protocol scaled to one machine; tests and benchmarks shrink Repeats,
// resolution and iteration budgets (the shapes survive scaling, the wall
// clock does not).
type Opts struct {
	Workers       int
	Width, Height int
	Repeats       int // paper: 15 per scene (150 measurement repeats in §V-D4)
	MaxIterations int
	BaseFrames    int       // frames measured for the fixed base config
	Seed          int64     // base RNG seed; repeat i uses Seed+i
	Progress      io.Writer // optional progress log
}

func (o Opts) normalize() Opts {
	if o.Width <= 0 {
		o.Width = 192
	}
	if o.Height <= 0 {
		o.Height = o.Width * 3 / 4
	}
	if o.Repeats <= 0 {
		o.Repeats = 15
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 150
	}
	if o.BaseFrames <= 0 {
		o.BaseFrames = 9
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Opts) logf(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// SpeedupCell is one (scene, algorithm) measurement: the data behind both
// Figure 5 (absolute times) and Figure 6 (speedups).
type SpeedupCell struct {
	Scene                            string
	Algorithm                        kdtree.Algorithm
	Base                             time.Duration // median frame time, base configuration
	Tuned                            time.Duration // median steady-state frame time after tuning
	TunedCI, TunedCB, TunedS, TunedR int
	ConvergedAt                      int
}

// Speedup returns base/tuned.
func (c SpeedupCell) Speedup() float64 {
	if c.Tuned == 0 {
		return 0
	}
	return float64(c.Base) / float64(c.Tuned)
}

// SpeedupExperiment measures base vs tuned frame time for every requested
// scene and algorithm. It backs Figures 5 and 6.
func SpeedupExperiment(sceneNames []string, algos []kdtree.Algorithm, o Opts) ([]SpeedupCell, error) {
	o = o.normalize()
	var out []SpeedupCell
	for _, name := range sceneNames {
		sc, err := scene.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, algo := range algos {
			rc := RunConfig{
				Scene: sc, Algorithm: algo, Workers: o.Workers,
				Width: o.Width, Height: o.Height,
				MaxIterations: o.MaxIterations, Seed: o.Seed,
			}
			base := MeasureFixed(rc, o.BaseFrames)

			rcNM := rc
			rcNM.Search = SearchNelderMead
			res := Run(rcNM)

			// The paper's speedup compares m_a(C_tuned) against
			// m_a(C_base): re-measure the tuned configuration under the
			// same fixed protocol as the base, so exploration frames and
			// lucky-noise incumbent selection cannot contaminate the
			// numerator.
			best := res.BestConfig()
			tuned := MeasureFixed(RunConfig{
				Scene: rc.Scene, Algorithm: algo, Workers: rc.Workers,
				Width: rc.Width, Height: rc.Height,
				Base: best,
			}, o.BaseFrames)

			cell := SpeedupCell{
				Scene: name, Algorithm: algo,
				Base: base, Tuned: tuned,
				TunedCI: int(best.CI), TunedCB: int(best.CB), TunedS: best.S, TunedR: best.R,
				ConvergedAt: res.ConvergedAt,
			}
			out = append(out, cell)
			o.logf("%-12s %-10s base %8s tuned %8s speedup %.2fx (conv @%d, C=(%d,%d,%d,%d))",
				name, algo, base.Round(time.Millisecond), cell.Tuned.Round(time.Millisecond),
				cell.Speedup(), cell.ConvergedAt, cell.TunedCI, cell.TunedCB, cell.TunedS, cell.TunedR)
		}
	}
	return out, nil
}

// PrintFigure5 renders the absolute-time comparison of Figure 5.
func PrintFigure5(w io.Writer, cells []SpeedupCell) {
	fmt.Fprintln(w, "Figure 5: absolute frame time, base configuration vs tuned")
	fmt.Fprintf(w, "%-12s %-10s %12s %12s %8s\n", "scene", "algorithm", "base", "tuned", "speedup")
	for _, c := range cells {
		fmt.Fprintf(w, "%-12s %-10s %12s %12s %7.2fx\n",
			c.Scene, c.Algorithm, c.Base.Round(100*time.Microsecond),
			c.Tuned.Round(100*time.Microsecond), c.Speedup())
	}
}

// PrintFigure6 renders the speedup matrix of Figure 6 (scenes x algorithms).
func PrintFigure6(w io.Writer, cells []SpeedupCell) {
	fmt.Fprintln(w, "Figure 6: speedup of the tuned algorithms over their base configurations")
	byScene := map[string]map[kdtree.Algorithm]SpeedupCell{}
	var order []string
	for _, c := range cells {
		if byScene[c.Scene] == nil {
			byScene[c.Scene] = map[kdtree.Algorithm]SpeedupCell{}
			order = append(order, c.Scene)
		}
		byScene[c.Scene][c.Algorithm] = c
	}
	fmt.Fprintf(w, "%-12s", "scene")
	for _, a := range kdtree.Algorithms {
		fmt.Fprintf(w, " %10s", a)
	}
	fmt.Fprintln(w)
	for _, name := range order {
		fmt.Fprintf(w, "%-12s", name)
		for _, a := range kdtree.Algorithms {
			if c, ok := byScene[name][a]; ok {
				fmt.Fprintf(w, " %9.2fx", c.Speedup())
			} else {
				fmt.Fprintf(w, " %10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// ParamDistribution is the Figure 7 statistic: the distribution of one
// tuned parameter over repeated tuning runs, normalised to [0, 100].
type ParamDistribution struct {
	Label   string // scene or platform name
	Param   string // CI, CB, S, R
	Summary Summary
}

// TunedDistribution repeats the tuning run `o.Repeats` times per scene for
// the given algorithm and reports the normalised distribution of each tuned
// parameter (Figures 7a and 7b; the paper uses the in-place algorithm).
func TunedDistribution(sceneNames []string, algo kdtree.Algorithm, o Opts) ([]ParamDistribution, error) {
	o = o.normalize()
	var out []ParamDistribution
	for _, name := range sceneNames {
		sc, err := scene.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, distributionForScene(sc, name, algo, o.Workers, o)...)
	}
	return out, nil
}

// TunedDistributionPlatforms is Figure 7c: the Sibenik scene tuned on each
// simulated hardware platform.
func TunedDistributionPlatforms(sceneName string, algo kdtree.Algorithm, o Opts) ([]ParamDistribution, error) {
	o = o.normalize()
	sc, err := scene.ByName(sceneName)
	if err != nil {
		return nil, err
	}
	var out []ParamDistribution
	for _, p := range Platforms() {
		out = append(out, distributionForScene(sc, p.Name, algo, p.Threads, o)...)
	}
	return out, nil
}

func distributionForScene(sc *scene.Scene, label string, algo kdtree.Algorithm, workers int, o Opts) []ParamDistribution {
	var cis, cbs, ss, rs []float64
	for rep := 0; rep < o.Repeats; rep++ {
		res := Run(RunConfig{
			Scene: sc, Algorithm: algo, Search: SearchNelderMead,
			Workers: workers, Width: o.Width, Height: o.Height,
			MaxIterations: o.MaxIterations, Seed: o.Seed + int64(rep),
		})
		best := res.BestConfig()
		cis = append(cis, Normalize01(best.CI, CIMin, CIMax))
		cbs = append(cbs, Normalize01(best.CB, CBMin, CBMax))
		ss = append(ss, Normalize01(float64(best.S), SMin, SMax))
		rs = append(rs, NormalizeLog2(float64(best.R), RMin, RMax))
		o.logf("fig7 %-16s rep %2d -> C=(%v,%v,%d,%d)", label, rep, best.CI, best.CB, best.S, best.R)
	}
	out := []ParamDistribution{
		{Label: label, Param: "CI", Summary: Summarize(cis)},
		{Label: label, Param: "CB", Summary: Summarize(cbs)},
		{Label: label, Param: "S", Summary: Summarize(ss)},
	}
	if algo.HasR() {
		out = append(out, ParamDistribution{Label: label, Param: "R", Summary: Summarize(rs)})
	}
	return out
}

// PrintFigure7 renders boxplot rows.
func PrintFigure7(w io.Writer, title string, dists []ParamDistribution) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-16s %-4s %s\n", "label", "prm", "normalized distribution [0,100]")
	for _, d := range dists {
		fmt.Fprintf(w, "%-16s %-4s %s\n", d.Label, d.Param, d.Summary)
	}
}

// ConvergencePoint is one step of the Figure 8 curve.
type ConvergencePoint struct {
	Iteration   int
	MeanSpeedup float64
}

// ConvergenceTrace repeats the tuning run and averages, per iteration, the
// speedup of the measured frame over the base configuration — Figure 8.
func ConvergenceTrace(sceneName string, algo kdtree.Algorithm, o Opts) ([]ConvergencePoint, error) {
	o = o.normalize()
	sc, err := scene.ByName(sceneName)
	if err != nil {
		return nil, err
	}
	rc := RunConfig{
		Scene: sc, Algorithm: algo, Workers: o.Workers,
		Width: o.Width, Height: o.Height, MaxIterations: o.MaxIterations,
	}
	base := MeasureFixed(rc, o.BaseFrames)

	sums := make([]float64, o.MaxIterations)
	counts := make([]int, o.MaxIterations)
	for rep := 0; rep < o.Repeats; rep++ {
		rc.Search = SearchNelderMead
		rc.Seed = o.Seed + int64(rep)
		res := Run(rc)
		for i, s := range res.SpeedupTrace(base) {
			sums[i] += s
			counts[i]++
		}
		o.logf("fig8 %-10s rep %2d: %d frames", sceneName, rep, len(res.Frames))
	}
	var out []ConvergencePoint
	for i := range sums {
		if counts[i] > 0 {
			out = append(out, ConvergencePoint{Iteration: i, MeanSpeedup: sums[i] / float64(counts[i])})
		}
	}
	return out, nil
}

// PrintFigure8 renders the convergence curve as text.
func PrintFigure8(w io.Writer, sceneName string, pts []ConvergencePoint) {
	fmt.Fprintf(w, "Figure 8: mean speedup over time, %s\n", sceneName)
	for _, p := range pts {
		bar := int(p.MeanSpeedup * 20)
		if bar < 0 {
			bar = 0
		}
		if bar > 60 {
			bar = 60
		}
		fmt.Fprintf(w, "iter %3d  %5.2fx |%s\n", p.Iteration, p.MeanSpeedup, bars[:bar])
	}
}

const bars = "############################################################"

// SearchComparison is one algorithm's Figure 9 panel: frame-time
// distributions under the default configuration, Nelder–Mead tuned
// configurations, and the exhaustive-search optimum.
type SearchComparison struct {
	Algorithm  kdtree.Algorithm
	Default    Summary // seconds
	NelderMead Summary
	Exhaustive Summary
	GridSize   int
}

// CompareSearches reproduces §V-D4 on one scene: for each algorithm it
// measures the frame-time distribution of (a) the default configuration,
// (b) configurations found by repeated Nelder–Mead runs, and (c) the best
// configuration of a (strided) exhaustive grid walk.
func CompareSearches(sceneName string, algos []kdtree.Algorithm, strides []int, o Opts) ([]SearchComparison, error) {
	o = o.normalize()
	sc, err := scene.ByName(sceneName)
	if err != nil {
		return nil, err
	}
	var out []SearchComparison
	for _, algo := range algos {
		rc := RunConfig{
			Scene: sc, Algorithm: algo, Workers: o.Workers,
			Width: o.Width, Height: o.Height, MaxIterations: o.MaxIterations,
		}

		// (a) default configuration distribution.
		defTimes := measureConfigTimes(rc, kdtree.BaseConfig(algo), o.BaseFrames)

		// (b) repeated NM optimisations; each contributes its steady-state
		// frame time.
		var nmTimes []float64
		for rep := 0; rep < o.Repeats; rep++ {
			rcNM := rc
			rcNM.Search = SearchNelderMead
			rcNM.Seed = o.Seed + int64(rep)
			res := Run(rcNM)
			// Re-measure the found configuration under the fixed protocol
			// (see SpeedupExperiment for why).
			times := measureConfigTimes(rc, res.BestConfig(), o.BaseFrames)
			med := Summarize(times).Median
			nmTimes = append(nmTimes, med)
			o.logf("fig9 %-10s NM rep %2d -> %.4fs", algo, rep, med)
		}

		// (c) exhaustive walk, then measure its optimum.
		rcEx := rc
		rcEx.Search = SearchExhaustive
		rcEx.ExhaustiveStrides = strides
		rcEx.MaxIterations = 1 << 30 // bounded by the grid size below
		ex := Run(rcEx).BestConfig()
		exTimes := measureConfigTimes(rc, ex, o.BaseFrames)
		o.logf("fig9 %-10s exhaustive best C=(%v,%v,%v,%v)", algo, ex.CI, ex.CB, ex.S, ex.R)

		out = append(out, SearchComparison{
			Algorithm:  algo,
			Default:    Summarize(defTimes),
			NelderMead: Summarize(nmTimes),
			Exhaustive: Summarize(exTimes),
		})
	}
	return out, nil
}

// measureConfigTimes measures `frames` frame times under a fixed config.
func measureConfigTimes(rc RunConfig, cfg kdtree.Config, frames int) []float64 {
	rc.Search = SearchFixed
	rc.Base = cfg
	rc.MaxIterations = frames
	res := Run(rc)
	out := make([]float64, len(res.Frames))
	for i, f := range res.Frames {
		out[i] = f.Total.Seconds()
	}
	return out
}

// PrintFigure9 renders the search comparison.
func PrintFigure9(w io.Writer, sceneName string, cmps []SearchComparison) {
	fmt.Fprintf(w, "Figure 9: Nelder-Mead vs exhaustive search vs default, %s (seconds)\n", sceneName)
	for _, c := range cmps {
		fmt.Fprintf(w, "%s:\n", c.Algorithm)
		fmt.Fprintf(w, "  default     %s\n", c.Default)
		fmt.Fprintf(w, "  nelder-mead %s\n", c.NelderMead)
		fmt.Fprintf(w, "  exhaustive  %s\n", c.Exhaustive)
	}
}

// PrintTableI lists the tunable parameters per algorithm (Table I).
func PrintTableI(w io.Writer) {
	fmt.Fprintln(w, "Table I: tunable parameters of the four implementations")
	fmt.Fprintln(w, "(a) node-level, nested and in-place:")
	fmt.Fprintln(w, "    CI  cost for intersecting a triangle")
	fmt.Fprintln(w, "    CB  cost for duplication of a primitive")
	fmt.Fprintln(w, "    S   max. number of subtrees per thread")
	fmt.Fprintln(w, "(b) lazy construction: all of the above plus")
	fmt.Fprintln(w, "    R   minimal resolution of a node")
}

// PrintTableII lists the tuning ranges (Table II).
func PrintTableII(w io.Writer) {
	fmt.Fprintln(w, "Table II: tuning parameter ranges")
	fmt.Fprintf(w, "    CI  [%d, %d]\n", CIMin, CIMax)
	fmt.Fprintf(w, "    CB  [%d, %d]\n", CBMin, CBMax)
	fmt.Fprintf(w, "    S   [%d, %d]\n", SMin, SMax)
	fmt.Fprintf(w, "    R   [%d, %d] (limited to powers of 2)\n", RMin, RMax)
}

package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"kdtune/internal/autotune"
	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
)

// Machine-readable benchmark records: `kdbench -bench-json` writes one
// BenchReport per run, and `kdbench -compare old.json new.json` diffs two
// reports and fails on frame-time regressions. The JSON schema is documented
// in DESIGN.md §8.

// BenchSchema identifies the record format; bump on incompatible change.
const BenchSchema = "kdtune-bench/v1"

// HostInfo captures the platform a report was produced on — enough to
// recognise when two reports are not comparable.
type HostInfo struct {
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// Host describes the current process's platform.
func Host() HostInfo {
	return HostInfo{
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
}

// BenchStat summarises a sample of durations in milliseconds. CoV is the
// coefficient of variation (stddev/mean), the run-to-run noise indicator.
type BenchStat struct {
	MedianMS float64 `json:"median_ms"`
	IQRMS    float64 `json:"iqr_ms"`
	MeanMS   float64 `json:"mean_ms"`
	CoV      float64 `json:"cov"`
	N        int     `json:"n"`
}

// NewBenchStat computes the summary of a duration sample.
func NewBenchStat(ds []time.Duration) BenchStat {
	if len(ds) == 0 {
		return BenchStat{}
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(xs)
	s := Summarize(xs)
	variance := 0.0
	for _, x := range xs {
		variance += (x - s.Mean) * (x - s.Mean)
	}
	variance /= float64(len(xs))
	cov := 0.0
	if s.Mean > 0 {
		cov = math.Sqrt(variance) / s.Mean
	}
	return BenchStat{
		MedianMS: s.Median, IQRMS: s.Q3 - s.Q1, MeanMS: s.Mean, CoV: cov, N: s.N,
	}
}

// BenchSettings records the measurement protocol, so a -compare across
// different protocols can be rejected.
type BenchSettings struct {
	Width         int   `json:"width"`
	Height        int   `json:"height"`
	Workers       int   `json:"workers"`
	MaxIterations int   `json:"max_iterations"`
	MeasureFrames int   `json:"measure_frames"`
	WarmupFrames  int   `json:"warmup_frames"`
	Seed          int64 `json:"seed"`

	// DeadlineFactor is the watchdog multiple armed on every run: builds
	// slower than this many times the incumbent frame total abort and are
	// served from the median fallback. Zero selects the default (10 —
	// generous enough that honest probes never trip it); it is recorded in
	// the report because two runs with different watchdogs measured
	// different protocols.
	DeadlineFactor int `json:"deadline_factor,omitempty"`
}

// BenchResult is one scene x algorithm cell: frame-time statistics under the
// base configuration and under the tuned configuration, plus what the tuner
// chose.
type BenchResult struct {
	Scene     string `json:"scene"`
	Algorithm string `json:"algorithm"`
	Triangles int    `json:"triangles"`
	Dynamic   bool   `json:"dynamic"`

	Base  BenchStat `json:"base_frame"`  // C_base total frame time
	Frame BenchStat `json:"tuned_frame"` // tuned total frame time
	Build BenchStat `json:"tuned_build"` // tuned build component
	Rend  BenchStat `json:"tuned_render"`

	// TunedParams is the full named tuned vector (CI, CB, S, R, B, G, GB,
	// SB, P, T — see RunResult.TunedParams). The individual Tuned* fields
	// below are legacy projections of it, still written so old reports and
	// old readers keep comparing; -compare prefers the map when both sides
	// carry one.
	TunedParams map[string]int `json:"tuned_params,omitempty"`

	TunedCI     int     `json:"tuned_ci"`
	TunedCB     int     `json:"tuned_cb"`
	TunedS      int     `json:"tuned_s"`
	TunedR      int     `json:"tuned_r"`
	ConvergedAt int     `json:"converged_at"` // -1 = never
	Speedup     float64 `json:"speedup"`      // base median / tuned median

	// Render-side tuned parameters (packet width, tile size) and the
	// demotion rate (demotion events / packet rays — a lane handed to the
	// scalar core twice counts twice, so the rate can exceed 1) observed
	// during the tuned measurement frames. Zero TunedP marks a report from
	// before these were tunable; -compare then skips the render-config
	// equality requirement.
	TunedP       int     `json:"tuned_packet,omitempty"`
	TunedT       int     `json:"tuned_tile,omitempty"`
	DemotionRate float64 `json:"demotion_rate,omitempty"`

	// Steady-state allocation profile of one rebuild under the tuned
	// configuration, measured on a warm Builder (heap deltas averaged over
	// several rebuilds). GCPauseMS is the total stop-the-world pause time
	// accumulated across the measured rebuilds, not per build.
	AllocsPerBuild float64 `json:"allocs_per_build"`
	BytesPerBuild  float64 `json:"bytes_per_build"`
	GCPauseMS      float64 `json:"gc_pause_ms"`

	// Guarded-build outcome counters, summed over every Run this cell
	// performed (base measurement, tuning, tuned measurement). Non-zero
	// numbers mean the watchdog fired: some probe or measurement frame blew
	// its deadline and was rendered from the median-split fallback tree.
	AbortedBuilds  int `json:"aborted_builds"`
	FallbackFrames int `json:"fallback_frames"`
}

// Key identifies a result across reports.
func (r BenchResult) Key() string { return r.Scene + "/" + r.Algorithm }

// BenchReport is the top-level record `kdbench -bench-json` emits.
type BenchReport struct {
	Schema      string        `json:"schema"`
	Tag         string        `json:"tag"`
	CreatedUnix int64         `json:"created_unix"`
	Host        HostInfo      `json:"host"`
	Settings    BenchSettings `json:"settings"`
	Results     []BenchResult `json:"results"`
}

// BenchOptions configures RunBench.
type BenchOptions struct {
	Scenes     []*scene.Scene     // default: all evaluation scenes
	Algorithms []kdtree.Algorithm // default: the four paper builders
	Settings   BenchSettings      // zero fields get defaults
	Tag        string             // free-form label stored in the report
	Progress   io.Writer          // optional per-cell progress lines
}

func (o BenchOptions) normalized() BenchOptions {
	if len(o.Scenes) == 0 {
		o.Scenes = scene.All()
	}
	if len(o.Algorithms) == 0 {
		o.Algorithms = kdtree.Algorithms
	}
	s := &o.Settings
	if s.Width <= 0 {
		s.Width = 160
	}
	if s.Height <= 0 {
		s.Height = s.Width * 3 / 4
	}
	if s.MaxIterations <= 0 {
		s.MaxIterations = 60
	}
	if s.MeasureFrames <= 0 {
		s.MeasureFrames = 9
	}
	if s.WarmupFrames < 0 {
		s.WarmupFrames = 0
	}
	if s.WarmupFrames == 0 {
		s.WarmupFrames = 2
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.DeadlineFactor <= 0 {
		s.DeadlineFactor = defaultBenchDeadlineFactor
	}
	return o
}

// measureStats renders warmup+measure frames under a fixed configuration,
// discards the warmup (cold caches, first-touch allocation), and summarises
// the rest. The returned RunResult carries the guarded-build counters.
func measureStats(rc RunConfig, s BenchSettings) (frame, build, rend BenchStat, res *RunResult) {
	rc.Search = SearchFixed
	rc.MaxIterations = s.WarmupFrames + s.MeasureFrames
	res = Run(rc)
	frames := res.Frames
	if len(frames) > s.WarmupFrames {
		frames = frames[s.WarmupFrames:]
	}
	var totals, builds, rends []time.Duration
	for _, f := range frames {
		totals = append(totals, f.Total)
		builds = append(builds, f.Build)
		rends = append(rends, f.Render)
	}
	return NewBenchStat(totals), NewBenchStat(builds), NewBenchStat(rends), res
}

// allocMeasureBuilds is how many steady-state rebuilds the allocation probe
// averages over.
const allocMeasureBuilds = 5

// defaultBenchDeadlineFactor is the watchdog multiple RunBench arms when
// BenchSettings.DeadlineFactor is zero: builds slower than this many times
// the incumbent frame total abort.
const defaultBenchDeadlineFactor = 10

// measureBuildAllocs profiles the steady-state allocation behaviour of one
// rebuild under cfg: a fresh Builder is warmed with two builds (first-touch
// arena growth), then heap-counter deltas are taken around several further
// rebuilds of the same geometry. The triangle slice is fetched once outside
// the measured region so scene generation does not pollute the numbers.
func measureBuildAllocs(sc *scene.Scene, cfg kdtree.Config) (allocs, bytes, gcPauseMS float64) {
	tris := sc.Triangles(0)
	b := kdtree.NewBuilder()
	b.Build(tris, cfg) //kdlint:noguard allocation profiling measures the raw build path; guard bookkeeping would pollute the counters
	b.Build(tris, cfg) //kdlint:noguard allocation profiling measures the raw build path; guard bookkeeping would pollute the counters

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocMeasureBuilds; i++ {
		b.Build(tris, cfg) //kdlint:noguard allocation profiling measures the raw build path; guard bookkeeping would pollute the counters
	}
	runtime.ReadMemStats(&after)

	n := float64(allocMeasureBuilds)
	allocs = float64(after.Mallocs-before.Mallocs) / n
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / n
	gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return allocs, bytes, gcPauseMS
}

// RunBench executes the benchmark protocol for every scene x algorithm pair:
// measure C_base frame times (warmup discarded), tune with Nelder-Mead, then
// re-measure under the tuned configuration.
func RunBench(o BenchOptions) *BenchReport {
	o = o.normalized()
	s := o.Settings
	rep := &BenchReport{
		Schema:      BenchSchema,
		Tag:         o.Tag,
		CreatedUnix: time.Now().Unix(),
		Host:        Host(),
		Settings:    s,
	}
	for _, sc := range o.Scenes {
		for _, algo := range o.Algorithms {
			rc := RunConfig{
				Scene: sc, Algorithm: algo, Workers: s.Workers,
				Width: s.Width, Height: s.Height, Seed: s.Seed,
				// Watchdog: abort any build slower than DeadlineFactor times
				// the fastest frame seen, render the fallback, penalize the
				// sample. The default is generous enough that honest probes
				// never trip it; kdbench -deadline-factor tightens it.
				DeadlineFactor: float64(s.DeadlineFactor),
			}
			baseFrame, _, _, baseRes := measureStats(rc, s)

			tune := rc
			tune.Search = SearchNelderMead
			tune.MaxIterations = s.MaxIterations
			run := Run(tune)

			best := run.BestConfig()
			tuned := rc
			tuned.Base = best
			tuned.PacketWidth = run.TunedParams["P"]
			tuned.TileSize = run.TunedParams["T"]
			frame, build, rend, tunedRes := measureStats(tuned, s)
			allocsB, bytesB, gcMS := measureBuildAllocs(sc, best)
			abortedB := baseRes.AbortedBuilds + run.AbortedBuilds + tunedRes.AbortedBuilds
			fallbackF := baseRes.FallbackFrames + run.FallbackFrames + tunedRes.FallbackFrames

			speedup := 0.0
			if frame.MedianMS > 0 {
				speedup = baseFrame.MedianMS / frame.MedianMS
			}
			demRate := 0.0
			if tunedRes.PacketRays > 0 {
				demRate = float64(tunedRes.Demotions) / float64(tunedRes.PacketRays)
			}
			res := BenchResult{
				Scene: sc.Name, Algorithm: algo.String(),
				Triangles: sc.NumTriangles(), Dynamic: sc.IsDynamic(),
				Base: baseFrame, Frame: frame, Build: build, Rend: rend,
				TunedParams: run.TunedParams,
				TunedCI:     int(best.CI), TunedCB: int(best.CB),
				TunedS: best.S, TunedR: best.R,
				TunedP: tuned.PacketWidth, TunedT: tuned.TileSize,
				DemotionRate:   demRate,
				ConvergedAt:    run.ConvergedAt,
				Speedup:        speedup,
				AllocsPerBuild: allocsB, BytesPerBuild: bytesB, GCPauseMS: gcMS,
				AbortedBuilds: abortedB, FallbackFrames: fallbackF,
			}
			rep.Results = append(rep.Results, res)
			if o.Progress != nil {
				fmt.Fprintf(o.Progress, "bench %-12s %-10s base %.2fms tuned %.2fms (%.2fx) cfg=[%s]\n",
					res.Scene, res.Algorithm, res.Base.MedianMS, res.Frame.MedianMS,
					res.Speedup, autotune.FormatParams(res.TunedParams))
			}
		}
	}
	return rep
}

// WriteBenchReport writes the report as indented JSON.
func WriteBenchReport(w io.Writer, rep *BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteBenchReportFile writes the report to path.
func WriteBenchReportFile(path string, rep *BenchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBenchReport(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBenchReport parses a report and validates its schema tag.
func ReadBenchReport(r io.Reader) (*BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	if rep.Schema != BenchSchema {
		return nil, fmt.Errorf("bench report: schema %q, want %q", rep.Schema, BenchSchema)
	}
	return &rep, nil
}

// ReadBenchReportFile reads a report from path.
func ReadBenchReportFile(path string) (*BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := ReadBenchReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// Regression is one cell whose frame-time median got worse than the
// threshold allows.
type Regression struct {
	Key            string  // scene/algorithm
	Metric         string  // "base" or "tuned"
	OldMS, NewMS   float64 // frame-time medians
	Pct            float64 // (new-old)/old * 100
	OldCoV, NewCoV float64
}

// PhaseDelta attributes a tuned cell's frame-time change to its phases:
// one entry per (cell, phase) with the old/new medians and the delta. Only
// cells compared under an equal tuned configuration produce entries — a
// phase delta across different configurations measures search luck, not
// code.
type PhaseDelta struct {
	Key          string  // scene/algorithm
	Phase        string  // "frame", "build" or "render"
	OldMS, NewMS float64 // phase medians
	Pct          float64 // (new-old)/old * 100
}

// CompareResult is the outcome of diffing two reports.
type CompareResult struct {
	ThresholdPct float64
	Checked      int          // cells present in both reports
	TunedSkipped []string     // cells whose tuned configs differ (tuned not compared)
	Missing      []string     // keys in old that new lacks
	Faulted      []string     // new-report cells measured through aborts/fallbacks
	Regressions  []Regression // cells past the threshold

	// Per-phase attribution for the same-config tuned cells. Frame and
	// render phases gate (they join Regressions past the threshold); the
	// build phase is informational — build medians on small scenes are
	// noisy, and a genuine build regression surfaces in the frame gate —
	// but BuildImproved/BuildCompared summarise where build time went.
	Phases        []PhaseDelta
	BuildImproved int // same-config cells whose tuned_build median shrank
	BuildCompared int // same-config cells with a comparable build median
}

// OK reports whether the comparison passes: nothing missing, nothing
// regressed, no measurement that silently rode a fallback build.
func (c CompareResult) OK() bool {
	return len(c.Missing) == 0 && len(c.Regressions) == 0 && len(c.Faulted) == 0
}

// CompareBenchReports diffs the frame-time medians of two reports.
//
// Base-configuration cells are always compared: C_base is fixed by
// protocol, so a base median growing past thresholdPct is a genuine code
// slowdown. Tuned cells are compared only when both reports landed on the
// same tuned configuration — when the (noisy, online) searches landed on
// different configs, the two medians measure different work and their delta
// is search luck, not code speed; those cells are listed informationally in
// TunedSkipped instead of gating. Cells present only in the old report are
// flagged as missing (a silently dropped benchmark must fail the gate too);
// cells only in the new report are fine — coverage grew. Finally, any
// new-report cell with nonzero aborted_builds/fallback_frames fails: a
// healthy benchmark must never have measured a median-split fallback tree
// where it claims a tuned one (DESIGN.md §10).
func CompareBenchReports(old, new *BenchReport, thresholdPct float64) CompareResult {
	c := CompareResult{ThresholdPct: thresholdPct}
	newBy := make(map[string]BenchResult, len(new.Results))
	for _, r := range new.Results {
		newBy[r.Key()] = r
	}
	check := func(key, metric string, o, n BenchStat) {
		if o.MedianMS <= 0 {
			return
		}
		pct := (n.MedianMS - o.MedianMS) / o.MedianMS * 100
		if pct > thresholdPct {
			c.Regressions = append(c.Regressions, Regression{
				Key: key, Metric: metric, OldMS: o.MedianMS, NewMS: n.MedianMS,
				Pct: pct, OldCoV: o.CoV, NewCoV: n.CoV,
			})
		}
	}
	for _, o := range old.Results {
		n, ok := newBy[o.Key()]
		if !ok {
			c.Missing = append(c.Missing, o.Key())
			continue
		}
		c.Checked++
		if n.AbortedBuilds > 0 || n.FallbackFrames > 0 {
			c.Faulted = append(c.Faulted, fmt.Sprintf("%s (%d aborted builds, %d fallback frames)",
				o.Key(), n.AbortedBuilds, n.FallbackFrames))
		}
		check(o.Key(), "base", o.Base, n.Base)
		if sameTunedConfig(o, n) {
			// Gate the tuned frame median as before, and the render phase on
			// its own — a render regression can hide inside an unchanged
			// frame median when the build got faster (exactly the trade this
			// PR makes), and the acceptance bar is "build improves, render
			// does not pay for it".
			check(o.Key(), "tuned", o.Frame, n.Frame)
			check(o.Key(), "render", o.Rend, n.Rend)
			// Per-phase attribution (informational for build): where inside
			// the frame did the time move?
			phase := func(name string, os, ns BenchStat) {
				if os.MedianMS <= 0 || ns.MedianMS <= 0 {
					return
				}
				c.Phases = append(c.Phases, PhaseDelta{
					Key: o.Key(), Phase: name, OldMS: os.MedianMS, NewMS: ns.MedianMS,
					Pct: (ns.MedianMS - os.MedianMS) / os.MedianMS * 100,
				})
				if name == "build" {
					c.BuildCompared++
					if ns.MedianMS < os.MedianMS {
						c.BuildImproved++
					}
				}
			}
			phase("frame", o.Frame, n.Frame)
			phase("build", o.Build, n.Build)
			phase("render", o.Rend, n.Rend)
		} else {
			c.TunedSkipped = append(c.TunedSkipped, fmt.Sprintf("%s [%s] -> [%s]",
				o.Key(), formatTunedConfig(o), formatTunedConfig(n)))
		}
	}
	sort.Slice(c.Regressions, func(i, j int) bool { return c.Regressions[i].Pct > c.Regressions[j].Pct })
	sort.Strings(c.Missing)
	sort.Strings(c.Faulted)
	sort.Strings(c.TunedSkipped)
	sort.Slice(c.Phases, func(i, j int) bool {
		if c.Phases[i].Key != c.Phases[j].Key {
			return c.Phases[i].Key < c.Phases[j].Key
		}
		return c.Phases[i].Phase < c.Phases[j].Phase
	})
	return c
}

// sameTunedConfig decides whether two cells' tuned measurements measured the
// same work. When both reports carry the full named vector, the maps must be
// equal — any dimension moving (a different bin count, a different grain)
// makes the medians incomparable. Reports from before tuned_params fall back
// to the legacy field rule: equal tree parameters, and equal render
// parameters when both sides carry them (zero TunedP marks a report from
// before the render tunables existed).
func sameTunedConfig(o, n BenchResult) bool {
	if len(o.TunedParams) > 0 && len(n.TunedParams) > 0 {
		if len(o.TunedParams) != len(n.TunedParams) {
			return false
		}
		for k, v := range o.TunedParams {
			nv, ok := n.TunedParams[k]
			if !ok || nv != v {
				return false
			}
		}
		return true
	}
	sameTree := o.TunedCI == n.TunedCI && o.TunedCB == n.TunedCB &&
		o.TunedS == n.TunedS && o.TunedR == n.TunedR
	sameRender := o.TunedP == 0 || n.TunedP == 0 ||
		(o.TunedP == n.TunedP && o.TunedT == n.TunedT)
	return sameTree && sameRender
}

// formatTunedConfig renders a cell's tuned configuration for the skip list:
// the full named vector when present, the legacy tuple otherwise.
func formatTunedConfig(r BenchResult) string {
	if len(r.TunedParams) > 0 {
		return autotune.FormatParams(r.TunedParams)
	}
	return fmt.Sprintf("%d,%d,%d,%d,P%d,T%d", r.TunedCI, r.TunedCB, r.TunedS, r.TunedR, r.TunedP, r.TunedT)
}

// Format renders the comparison for humans.
func (c CompareResult) Format(w io.Writer) {
	fmt.Fprintf(w, "compared %d cells (threshold %+.1f%%)\n", c.Checked, c.ThresholdPct)
	for _, k := range c.Missing {
		fmt.Fprintf(w, "  MISSING    %-30s present in old report only\n", k)
	}
	for _, k := range c.Faulted {
		fmt.Fprintf(w, "  FAULTED    %s\n", k)
	}
	for _, r := range c.Regressions {
		fmt.Fprintf(w, "  REGRESSION %-30s %-5s %8.2fms -> %8.2fms (%+.1f%%, cov %.2f -> %.2f)\n",
			r.Key, r.Metric, r.OldMS, r.NewMS, r.Pct, r.OldCoV, r.NewCoV)
	}
	for _, p := range c.Phases {
		fmt.Fprintf(w, "  phase      %-30s %-6s %8.2fms -> %8.2fms (%+.1f%%)\n",
			p.Key, p.Phase, p.OldMS, p.NewMS, p.Pct)
	}
	if c.BuildCompared > 0 {
		fmt.Fprintf(w, "  tuned_build improved on %d/%d same-config cells\n", c.BuildImproved, c.BuildCompared)
	}
	for _, k := range c.TunedSkipped {
		fmt.Fprintf(w, "  tuned-config changed, tuned time not compared: %s\n", k)
	}
	if c.OK() {
		fmt.Fprintln(w, "  no regressions")
	}
}

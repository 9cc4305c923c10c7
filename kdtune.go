// Package kdtune is a Go reproduction of "Online-Autotuning of Parallel SAH
// kD-Trees" (Tillmann, Pfaffe, Kaag, Tichy; IPPS 2016): four parallel
// construction algorithms for Surface-Area-Heuristic kD-trees, an
// application-agnostic online autotuner in the style of AtuneRT, a
// ray-casting renderer, the paper's six evaluation scenes (procedural
// stand-ins with matching triangle counts), and an experiment harness that
// regenerates every table and figure of the paper's evaluation.
//
// This package is the stable public facade; it re-exports the pieces a
// downstream user composes:
//
//	sc, _ := kdtune.SceneByName("Sibenik")
//	cfg := kdtune.BaseConfig(kdtune.AlgoInPlace)
//	tree := kdtune.Build(sc.Triangles(0), cfg)
//	hit, ok := kdtune.IntersectClosest(tree, ray)
//
// and the online tuning loop of the paper's Figure 1, with subsystems
// contributing their tunables through a shared registry:
//
//	reg := kdtune.NewTunableRegistry()
//	reg.Register(kdtune.Tunable{Name: "CI", Target: &ci, Min: 3, Max: 101, Step: 1})
//	tuner := kdtune.NewTuner(kdtune.TunerOptions{})
//	tuner.RegisterAll(reg)
//	for running {
//		tuner.Start()
//		doTunedWork(ci)
//		tuner.Stop()
//	}
//
// RegisterAll is the only way parameters enter a Tuner: each tuned variable
// is declared once, as a named Tunable.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// paper-vs-reproduction results.
package kdtune

import (
	"io"
	"math"

	"kdtune/internal/autotune"
	"kdtune/internal/harness"
	"kdtune/internal/kdtree"
	"kdtune/internal/render"
	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// Geometry primitives.
type (
	// Vec3 is a 3-component double-precision vector.
	Vec3 = vecmath.Vec3
	// Ray is a parametric ray Origin + t*Dir.
	Ray = vecmath.Ray
	// Triangle is the geometric primitive stored in trees.
	Triangle = vecmath.Triangle
	// AABB is an axis-aligned bounding box.
	AABB = vecmath.AABB
)

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return vecmath.V(x, y, z) }

// Tri constructs a Triangle.
func Tri(a, b, c Vec3) Triangle { return vecmath.Tri(a, b, c) }

// NewRay constructs a Ray.
func NewRay(origin, dir Vec3) Ray { return vecmath.NewRay(origin, dir) }

// kD-tree construction.
type (
	// Tree is an SAH kD-tree over a triangle slice.
	Tree = kdtree.Tree
	// Config selects the algorithm and its Table-I parameters.
	Config = kdtree.Config
	// Algorithm identifies one of the paper's four builder variants.
	Algorithm = kdtree.Algorithm
	// Hit describes a ray-triangle intersection.
	Hit = kdtree.Hit
	// BuildStats summarises a finished construction.
	BuildStats = kdtree.BuildStats
)

// The four construction algorithms of the paper's §IV, plus two extensions:
// AlgoSortOnce (the full Wald–Havran O(N log N) event-splicing build) and
// AlgoMedian (the non-SAH spatial-median baseline).
const (
	AlgoNodeLevel = kdtree.AlgoNodeLevel
	AlgoNested    = kdtree.AlgoNested
	AlgoInPlace   = kdtree.AlgoInPlace
	AlgoLazy      = kdtree.AlgoLazy
	AlgoSortOnce  = kdtree.AlgoSortOnce
	AlgoMedian    = kdtree.AlgoMedian
)

// Algorithms lists all four builder variants in paper order.
var Algorithms = kdtree.Algorithms

// Build constructs an SAH kD-tree.
func Build(tris []Triangle, cfg Config) *Tree {
	//kdlint:noguard thin facade over the documented plain entry; kdtree.Build already arms the guard for panic containment, and callers wanting errors use BuildGuarded
	return kdtree.Build(tris, cfg)
}

// Guarded construction: builds that can be bounded and aborted instead of
// running away on hostile input or pathological configurations.
type (
	// Builder owns reusable build arenas; see NewBuilder.
	Builder = kdtree.Builder
	// Guard bounds one build (deadline, depth, arena bytes).
	Guard = kdtree.Guard
	// BuildAborted is the error a guarded build returns when stopped.
	BuildAborted = kdtree.BuildAborted
	// AbortCause classifies why a guarded build stopped.
	AbortCause = kdtree.AbortCause
)

// The abort causes a BuildAborted reports.
const (
	AbortDeadline    = kdtree.AbortDeadline
	AbortDepth       = kdtree.AbortDepth
	AbortMemory      = kdtree.AbortMemory
	AbortWorkerPanic = kdtree.AbortWorkerPanic
)

// NewBuilder creates a Builder whose arenas are reused across builds, so a
// frame loop's steady-state rebuild allocates (almost) nothing.
func NewBuilder() *Builder { return kdtree.NewBuilder() }

// BuildGuarded constructs a tree under the guard's limits. On abort it
// returns (nil, *BuildAborted) and the builder stays reusable — the caller
// can immediately rebuild, e.g. with AlgoMedian as a cheap fallback.
func BuildGuarded(tris []Triangle, cfg Config, g Guard) (*Tree, error) {
	return kdtree.NewBuilder().BuildGuarded(tris, cfg, g)
}

// Mesh sanitisation.
type (
	// SanitizePolicy selects per defect class what Sanitize does.
	SanitizePolicy = scene.SanitizePolicy
	// SanitizeAction is one policy choice (drop, reject, keep).
	SanitizeAction = scene.SanitizeAction
	// SanitizeReport tallies a Sanitize pass.
	SanitizeReport = scene.SanitizeReport
)

// The sanitize actions.
const (
	SanitizeDrop   = scene.SanitizeDrop
	SanitizeReject = scene.SanitizeReject
	SanitizeKeep   = scene.SanitizeKeep
)

// Sanitize filters NaN/Inf-vertex and zero-area triangles out of a mesh
// (in place) according to the policy, before they reach the SAH sweeps.
func Sanitize(tris []Triangle, policy SanitizePolicy) ([]Triangle, SanitizeReport, error) {
	return scene.Sanitize(tris, policy)
}

// BaseConfig returns the paper's manually crafted base configuration
// C_base = (CI, CB, S, R) = (17, 10, 3, 4096).
func BaseConfig(a Algorithm) Config { return kdtree.BaseConfig(a) }

// IntersectClosest finds the closest intersection of r with the tree over
// t in (1e-9, +inf).
func IntersectClosest(t *Tree, r Ray) (Hit, bool) {
	return t.Intersect(r, 1e-9, math.Inf(1))
}

// RangeQuery returns the indices of all triangles whose bounds overlap the
// query box, sorted and de-duplicated.
func RangeQuery(t *Tree, box AABB) []int { return t.RangeQuery(box) }

// NearestNeighbor returns the triangle closest to point p and its distance.
func NearestNeighbor(t *Tree, p Vec3) (tri int, dist float64, ok bool) {
	return t.NearestNeighbor(p)
}

// LoadTree deserialises a tree previously written with Tree.Serialize.
func LoadTree(r io.Reader) (*Tree, error) { return kdtree.ReadTree(r) }

// Online autotuning (AtuneRT-style).
type (
	// Tuner is the online autotuner of the paper's §III-A.
	Tuner = autotune.Tuner
	// TunerOptions configures a Tuner.
	TunerOptions = autotune.Options
	// TuneSample records one measurement cycle.
	TuneSample = autotune.Sample
	// TunableRegistry collects named tunables from any number of
	// subsystems; feed it to a Tuner with RegisterAll.
	TunableRegistry = autotune.Registry
	// Tunable is one named tuning parameter: target variable, range, and
	// scale hint.
	Tunable = autotune.Tunable
	// TunableScale is the search-space shaping hint of a Tunable.
	TunableScale = autotune.Scale
)

// The tunable scale hints: a plain integer interval, or the powers of two in
// the range (grains, bin counts, resolutions).
const (
	ScaleLinear = autotune.ScaleLinear
	ScalePow2   = autotune.ScalePow2
)

// NewTuner creates an online autotuner.
func NewTuner(opts TunerOptions) *Tuner { return autotune.New(opts) }

// NewTunableRegistry creates an empty tunable registry.
func NewTunableRegistry() *TunableRegistry { return autotune.NewRegistry() }

// Scenes.
type (
	// Scene is one of the evaluation scenes (or a user-built one).
	Scene = scene.Scene
	// View is a camera placement.
	View = scene.View
)

// SceneByName builds one of the six evaluation scenes ("Bunny", "Sponza",
// "Sibenik", "Toasters", "WoodDoll", "FairyForest").
func SceneByName(name string) (*Scene, error) { return scene.ByName(name) }

// SceneNames lists the six evaluation scenes in the paper's order.
func SceneNames() []string { return scene.Names() }

// NewStaticScene wraps a user triangle soup as a static scene.
func NewStaticScene(name string, tris []Triangle, view View, lights []Vec3) *Scene {
	return scene.NewStatic(name, tris, view, lights)
}

// Rendering.
type (
	// RenderOptions controls a render pass.
	RenderOptions = render.Options
	// Image is the framebuffer returned by Render.
	Image = render.Image
	// RenderStats counts the rays a render pass traced.
	RenderStats = render.RenderStats
)

// Render ray-casts a scene through a tree (the paper's §V-A renderer).
func Render(tree *Tree, view View, lights []Vec3, opt RenderOptions) (*Image, RenderStats) {
	return render.Render(tree, view, lights, opt)
}

// Experiments.
type (
	// RunConfig describes one Figure-4 tuning/measurement run.
	RunConfig = harness.RunConfig
	// RunResult aggregates a run.
	RunResult = harness.RunResult
	// ExperimentOpts are the shared experiment knobs.
	ExperimentOpts = harness.Opts
)

// The configuration-search policies compared in the paper.
const (
	SearchFixed      = harness.SearchFixed
	SearchNelderMead = harness.SearchNelderMead
	SearchExhaustive = harness.SearchExhaustive
)

// RunExperiment executes the Figure-4 workflow (build, render, measure,
// adapt) for one scene and algorithm.
func RunExperiment(rc RunConfig) *RunResult { return harness.Run(rc) }

// Selection is the result of SelectAlgorithm: each variant's tuned frame
// time and the winner.
type Selection = harness.Selection

// SelectAlgorithm tunes every construction algorithm on the scene, one
// after another, and picks the best — the treatment the paper's conclusion
// proposes for the nominal "which algorithm" parameter.
func SelectAlgorithm(sc *Scene, o ExperimentOpts) Selection {
	return harness.SelectAlgorithm(sc, o)
}

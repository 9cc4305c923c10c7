// Command kdtune runs the online-autotuned frame loop of the paper's
// Figure 4 on one scene and algorithm, printing the per-iteration trace:
// the configuration under test, the measured frame time, and convergence.
//
//	kdtune -scene Sponza -algo in-place -iters 100
//	kdtune -scene FairyForest -algo lazy -search exhaustive
//	kdtune -list-params
//	kdtune -scene Bunny -search fixed -params B=64,G=512,SB=2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"kdtune/internal/autotune"
	"kdtune/internal/harness"
	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
)

func main() {
	var (
		sceneName  = flag.String("scene", "Sponza", "scene name")
		algoName   = flag.String("algo", "in-place", "builder: node-level|nested|in-place|lazy")
		iters      = flag.Int("iters", 100, "max measurement cycles")
		width      = flag.Int("width", 192, "render width (height = 3/4 width)")
		workers    = flag.Int("workers", 0, "parallelism budget; 0 = all cores")
		seed       = flag.Int64("seed", 1, "tuner RNG seed")
		search     = flag.String("search", "nelder-mead", "nelder-mead|exhaustive|fixed")
		listParams = flag.Bool("list-params", false, "print the registered tunables as a markdown table and exit")
		params     = flag.String("params", "", "comma-separated name=value overrides for the base vector, e.g. B=64,G=512,SB=2")
	)
	flag.Parse()

	var algo kdtree.Algorithm
	found := false
	for _, a := range kdtree.Algorithms {
		if a.String() == *algoName {
			algo, found = a, true
		}
	}
	if !found {
		fail(fmt.Errorf("unknown algorithm %q", *algoName))
	}

	if *listParams {
		if err := printParamTable(os.Stdout, algo); err != nil {
			fail(err)
		}
		return
	}

	sc, err := scene.ByName(*sceneName)
	if err != nil {
		fail(err)
	}

	rc := harness.RunConfig{
		Scene: sc, Algorithm: algo, Workers: *workers,
		Width: *width, MaxIterations: *iters, Seed: *seed,
	}
	switch *search {
	case "nelder-mead":
		rc.Search = harness.SearchNelderMead
	case "exhaustive":
		rc.Search = harness.SearchExhaustive
		rc.ExhaustiveStrides = []int{12, 10, 2, 2}
	case "fixed":
		rc.Search = harness.SearchFixed
	default:
		fail(fmt.Errorf("unknown search %q", *search))
	}
	baseReg, err := applyParamOverrides(&rc, *params)
	if err != nil {
		fail(err)
	}
	names := baseReg.Names()

	fmt.Printf("tuning %s with the %s builder (%s search)\n", sc, algo, *search)
	base := harness.MeasureFixed(rc, 5)
	fmt.Printf("base configuration [%s]: median frame %v\n\n",
		autotune.FormatVector(names, baseReg.Snapshot()), base.Round(time.Millisecond))

	res := harness.Run(rc)
	frameVec := make(map[string]int, len(names))
	for _, f := range res.Frames {
		marker := ""
		if res.ConvergedAt >= 0 && f.Iteration == res.ConvergedAt {
			marker = "   <- converged"
		}
		for i, name := range names {
			frameVec[name] = f.Params[i]
		}
		fmt.Printf("iter %3d  frame %3d  [%s]  build %8s  render %8s  total %8s  speedup %.2fx%s\n",
			f.Iteration, f.FrameIndex, autotune.FormatVector(names, frameVec),
			f.Build.Round(time.Millisecond), f.Render.Round(time.Millisecond),
			f.Total.Round(time.Millisecond),
			float64(base)/float64(f.Total), marker)
	}

	fmt.Printf("\nbest configuration [%s], steady-state frame %v, speedup %.2fx\n",
		autotune.FormatVector(names, res.TunedParams),
		res.BestTotal.Round(time.Millisecond),
		float64(base)/float64(res.BestTotal))
}

// printParamTable renders the full tunable registry of one run as a markdown
// table — the source of the README "Tunables" section.
func printParamTable(w *os.File, algo kdtree.Algorithm) error {
	var vars harness.TunedVars
	reg, err := harness.ComposeRegistry(algo, &vars)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "| Name | Range | Scale | Description |")
	fmt.Fprintln(w, "|------|-------|-------|-------------|")
	for _, tn := range reg.Tunables() {
		rng := fmt.Sprintf("[%d, %d]", tn.Min, tn.Max)
		scale := tn.Scale.String()
		if tn.Scale == autotune.ScaleLinear && tn.Step > 1 {
			scale = fmt.Sprintf("linear, step %d", tn.Step)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", tn.Name, rng, scale, tn.Desc)
	}
	return nil
}

// applyParamOverrides resolves the run's base vector, applies the -params
// overrides to it, and makes it rc's base configuration. The returned
// registry reads the resolved vector back, so what is printed as the base is
// what MeasureFixed measures.
func applyParamOverrides(rc *harness.RunConfig, spec string) (*autotune.Registry, error) {
	vars := harness.NewTunedVars(*rc)
	reg, err := harness.ComposeRegistry(rc.Algorithm, &vars)
	if err != nil {
		return nil, err
	}
	if spec != "" {
		if err := setParams(reg, spec); err != nil {
			return nil, err
		}
	}
	rc.Base = vars.BuildConfig(*rc)
	rc.PacketWidth, rc.TileSize = vars.PacketWidth, vars.TileSize
	return reg, nil
}

// setParams parses "name=value,..." and writes each value through the
// registry, so a deliberately non-default vector (CI smoke legs,
// experiments) rides the same named mechanism as the tuner.
func setParams(reg *autotune.Registry, spec string) error {
	for _, kv := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("-params: %q is not name=value", kv)
		}
		tn, found := reg.Lookup(name)
		if !found {
			return fmt.Errorf("-params: unknown tunable %q (see -list-params)", name)
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("-params: %s: %v", name, err)
		}
		if v < tn.Min || v > tn.Max {
			return fmt.Errorf("-params: %s=%d outside [%d, %d]", name, v, tn.Min, tn.Max)
		}
		*tn.Target = v
	}
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "kdtune: %v\n", err)
	os.Exit(1)
}

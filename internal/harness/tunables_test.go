package harness

import (
	"math/rand"
	"slices"
	"testing"

	"kdtune/internal/kdtree"
	"kdtune/internal/render"
)

// TestFramesDeterministicAcrossWorkersForRandomVectors is the frame-level
// half of the PR 8 determinism property: for any fixed tunable vector —
// including the render-side packet width and tile size — the rendered
// pixels must be bitwise identical for every worker count. The build-side
// half (tree identity) lives in internal/kdtree.
func TestFramesDeterministicAcrossWorkersForRandomVectors(t *testing.T) {
	r := rand.New(rand.NewSource(811))
	sc := tinyScene()
	tris := sc.Triangles(0)
	vectors := 3
	if testing.Short() {
		vectors = 1
	}
	for i := 0; i < vectors; i++ {
		vars := TunedVars{
			CI: 3 + r.Intn(99), CB: r.Intn(61), S: 1 + r.Intn(8), R: 16 << r.Intn(10),
			Bins: 8 << r.Intn(5), ScatterGrain: 256 << r.Intn(9),
			BinGrain: 512 << r.Intn(7), SplitBias: r.Intn(4),
			PacketWidth: 1 << r.Intn(5), TileSize: 8 << r.Intn(4),
		}
		rc := RunConfig{Scene: sc, Algorithm: kdtree.AlgoInPlace, Workers: 1}

		cfg := vars.BuildConfig(rc)
		tree := kdtree.Build(tris, cfg)
		want, _ := render.Render(tree, sc.View, sc.Lights, render.Options{
			Width: 48, Height: 36, Workers: 1,
			PacketWidth: vars.PacketWidth, TileSize: vars.TileSize,
		})
		for _, w := range []int{2, 3 + r.Intn(6)} {
			cfgW := cfg
			cfgW.Workers = w
			treeW := kdtree.Build(tris, cfgW)
			got, _ := render.Render(treeW, sc.View, sc.Lights, render.Options{
				Width: 48, Height: 36, Workers: w,
				PacketWidth: vars.PacketWidth, TileSize: vars.TileSize,
			})
			if !slices.Equal(want.Pix, got.Pix) {
				t.Fatalf("vector %+v workers=%d: frame differs from workers=1", vars, w)
			}
		}
	}
}

// TestRunReportsFullNamedVector pins the report shape the registry refactor
// exists for: a finished run names every registered dimension and carries a
// complete name-keyed tuned vector, and BestConfig is assembled from that
// map, not from an independent code path.
func TestRunReportsFullNamedVector(t *testing.T) {
	res := Run(RunConfig{
		Scene: tinyScene(), Algorithm: kdtree.AlgoInPlace,
		Search: SearchNelderMead, Workers: 2,
		Width: 24, Height: 18, MaxIterations: 6, Seed: 5,
	})
	wantNames := []string{"CI", "CB", "S", "B", "G", "GB", "SB", "P", "T"}
	if !slices.Equal(res.ParamNames, wantNames) {
		t.Fatalf("ParamNames = %v, want %v (in-place: no R)", res.ParamNames, wantNames)
	}
	for _, name := range wantNames {
		if _, ok := res.TunedParams[name]; !ok {
			t.Errorf("TunedParams missing %q: %v", name, res.TunedParams)
		}
	}
	for _, f := range res.Frames {
		if len(f.Params) != len(res.ParamNames) {
			t.Fatalf("frame %d records %d params, want %d", f.Iteration, len(f.Params), len(res.ParamNames))
		}
	}
	cfg := res.BestConfig()
	if int(cfg.CI) != res.TunedParams["CI"] || cfg.S != res.TunedParams["S"] || cfg.R != res.Config.Base.R {
		t.Errorf("BestConfig Table II fields %+v do not match TunedParams %v", cfg, res.TunedParams)
	}
	if cfg.Bins != res.TunedParams["B"] || cfg.ScatterGrain != res.TunedParams["G"] ||
		cfg.BinGrain != res.TunedParams["GB"] || cfg.SplitBias != res.TunedParams["SB"] {
		t.Errorf("BestConfig scheduling fields %+v do not match TunedParams %v", cfg, res.TunedParams)
	}
}

// TestRunLazyRegistersR: the lazy builder's suspend threshold R joins the
// tree registry, and it must sit between S and B so the exhaustive walk's
// positional strides keep their documented (CI, CB, S, R) meaning.
func TestRunLazyRegistersR(t *testing.T) {
	res := Run(RunConfig{
		Scene: tinyScene(), Algorithm: kdtree.AlgoLazy,
		Search: SearchFixed, Workers: 2,
		Width: 24, Height: 18, MaxIterations: 2,
	})
	wantNames := []string{"CI", "CB", "S", "R", "B", "G", "GB", "SB", "P", "T"}
	if !slices.Equal(res.ParamNames, wantNames) {
		t.Fatalf("ParamNames = %v, want %v", res.ParamNames, wantNames)
	}
	if _, ok := res.TunedParams["R"]; !ok {
		t.Errorf("lazy run's TunedParams missing R: %v", res.TunedParams)
	}
}

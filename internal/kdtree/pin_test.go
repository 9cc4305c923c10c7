package kdtree

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"kdtune/internal/scene"
	"kdtune/internal/vecmath"
)

// treePins holds the FNV-64a hash of Tree.Serialize for every builder,
// clipping mode and pinned input. The determinism tests compare worker
// counts within one version of the code; these constants compare against
// the trees the builders produced when they were recorded, so a refactor of
// the split search or the recursion that changes a single plane, leaf order
// or deferred cell fails here. Never regenerate them to make a change pass:
// a new hash means the change altered the trees.
var treePins = map[string]uint64{
	"random4000/node-level/clip=false": 0xc66e27597355a448,
	"random4000/node-level/clip=true":  0x7b994184c77ca43d,
	"random4000/nested/clip=false":     0x6be0dce2c136109f,
	"random4000/nested/clip=true":      0x2cadee69996f744,
	"random4000/in-place/clip=false":   0x7f98969152fc1c3c,
	"random4000/in-place/clip=true":    0xa5ac2e85b9e06e87,
	"random4000/lazy/clip=false":       0x9eee83cef5dd109d,
	"random4000/lazy/clip=true":        0x6b4631e1dfee5108,
	"random4000/median/clip=false":     0x96304ff30a0a22f7,
	"random4000/median/clip=true":      0x127963c9ac37bbd3,
	"random4000/sort-once/clip=false":  0x176e4d2e75607c0d,
	"random4000/sort-once/clip=true":   0x4ced89df1183f804,
	"WoodDoll/node-level/clip=false":   0xb8eca3944e993c74,
	"WoodDoll/node-level/clip=true":    0x1b0c85a0a400097f,
	"WoodDoll/nested/clip=false":       0x20b6f6d94bebf272,
	"WoodDoll/nested/clip=true":        0xe14e8ede3396777b,
	"WoodDoll/in-place/clip=false":     0x45f50c448b281431,
	"WoodDoll/in-place/clip=true":      0xf506488cc55c8318,
	"WoodDoll/lazy/clip=false":         0x9903193b83f4a0a4,
	"WoodDoll/lazy/clip=true":          0x38eb14eb10bc8f91,
	"WoodDoll/median/clip=false":       0x1af9401b44b4a15f,
	"WoodDoll/median/clip=true":        0x570b54c6f50f1810,
	"WoodDoll/sort-once/clip=false":    0x6809d74fdd9e2d6f,
	"WoodDoll/sort-once/clip=true":     0xb3d2779df36eda2,
}

// pinInputs are the pinned geometries: a seeded random soup and one
// procedural evaluation scene.
func pinInputs() []struct {
	name string
	tris []vecmath.Triangle
} {
	return []struct {
		name string
		tris []vecmath.Triangle
	}{
		{"random4000", randomTriangles(rand.New(rand.NewSource(1313)), 4000, 10, 0.25)},
		{"WoodDoll", scene.WoodDoll().Triangles(0)},
	}
}

func serializedHash(t *testing.T, tree *Tree) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := tree.Serialize(h); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// TestTreesPinned builds every pinned (input, algorithm, clipping) cell at
// one and four workers and checks the serialized tree against its recorded
// hash. Lazy runs with R=32 so serialization's ExpandAll takes the
// deferred-subtree path.
func TestTreesPinned(t *testing.T) {
	for _, in := range pinInputs() {
		for _, algo := range allAlgorithms {
			for _, clip := range []bool{false, true} {
				key := fmt.Sprintf("%s/%v/clip=%v", in.name, algo, clip)
				for _, w := range []int{1, 4} {
					cfg := BaseConfig(algo)
					cfg.UseClipping = clip
					cfg.Workers = w
					cfg.R = 32
					tree := Build(in.tris, cfg)
					if algo == AlgoLazy && len(tree.deferred) == 0 {
						t.Errorf("%s workers=%d: lazy build suspended nothing", key, w)
					}
					got := serializedHash(t, tree)
					want, ok := treePins[key]
					if !ok {
						t.Errorf("%s workers=%d: no pin recorded (hash %#x)", key, w, got)
						continue
					}
					if got != want {
						t.Errorf("%s workers=%d: tree hash %#x, pinned %#x", key, w, got, want)
					}
				}
			}
		}
	}
}

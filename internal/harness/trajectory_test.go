package harness

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"kdtune/internal/autotune"
	"kdtune/internal/kdtree"
)

// The pins below were recorded from the search code before the registry
// became the only registration path; they must reproduce exactly, so any
// change to how a run composes or walks its search space shows up here as a
// changed trajectory rather than as a silently different tuned result.

// pinCost is a smooth synthetic cost surface over the registry's current
// target values: a bowl in range-normalised coordinates whose optimum
// shifts per dimension.
func pinCost(reg *autotune.Registry) float64 {
	c := 0.0
	for i, tn := range reg.Tunables() {
		x := float64(*tn.Target-tn.Min)/float64(tn.Max-tn.Min) - 0.3 - 0.05*float64(i)
		c += x * x
	}
	return c
}

// pinRegistry composes the registry of a run of algo over its base vector.
func pinRegistry(t *testing.T, algo kdtree.Algorithm) (*autotune.Registry, RunConfig) {
	t.Helper()
	rc := RunConfig{Algorithm: algo}.normalize()
	vars := NewTunedVars(rc)
	reg, err := ComposeRegistry(algo, &vars)
	if err != nil {
		t.Fatal(err)
	}
	return reg, rc
}

// TestNelderMeadTrajectoryPinned pins the first 60 configurations a Seed-7
// Nelder–Mead tuner proposes over the lazy builder's full 10-D registry.
func TestNelderMeadTrajectoryPinned(t *testing.T) {
	reg, _ := pinRegistry(t, kdtree.AlgoLazy)
	if want := []string{"CI", "CB", "S", "R", "B", "G", "GB", "SB", "P", "T"}; !slices.Equal(reg.Names(), want) {
		t.Fatalf("registry order = %v, want %v", reg.Names(), want)
	}
	tuner := autotune.New(autotune.Options{Seed: 7})
	if err := tuner.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	want := [][]int{
		{93, 14, 3, 4096, 64, 512, 2048, 1, 1, 32},
		{48, 23, 2, 4096, 16, 512, 8192, 3, 8, 8},
		{96, 19, 7, 16, 32, 16384, 4096, 3, 8, 16},
		{95, 21, 7, 4096, 64, 4096, 1024, 3, 4, 16},
		{80, 51, 5, 2048, 16, 512, 2048, 2, 16, 16},
		{53, 40, 2, 256, 16, 32768, 8192, 3, 4, 8},
		{93, 12, 6, 16, 64, 2048, 4096, 0, 4, 8},
		{15, 38, 5, 64, 8, 32768, 8192, 1, 2, 32},
		{93, 3, 4, 512, 128, 1024, 32768, 3, 16, 32},
		{97, 49, 4, 32, 64, 512, 16384, 1, 16, 8},
		{99, 22, 8, 1024, 32, 32768, 4096, 1, 8, 16},
		{34, 37, 1, 8192, 16, 32768, 512, 0, 4, 32},
		{92, 1, 8, 8192, 128, 1024, 32768, 3, 8, 32},
		{26, 1, 5, 8192, 32, 16384, 1024, 1, 4, 32},
		{78, 35, 3, 8192, 16, 32768, 16384, 3, 16, 8},
		{35, 34, 4, 64, 32, 1024, 32768, 2, 8, 8},
		{31, 5, 7, 8192, 32, 2048, 1024, 1, 1, 32},
		{41, 56, 6, 32, 32, 2048, 1024, 1, 4, 16},
		{79, 40, 4, 2048, 64, 2048, 8192, 2, 8, 32},
		{60, 57, 5, 4096, 64, 1024, 16384, 1, 4, 16},
		{86, 37, 6, 128, 128, 65536, 1024, 2, 2, 16},
		{23, 4, 6, 16, 16, 4096, 4096, 2, 2, 8},
		{17, 35, 1, 1024, 32, 512, 16384, 3, 4, 32},
		{8, 47, 4, 256, 16, 16384, 32768, 3, 16, 8},
		{38, 23, 5, 4096, 32, 256, 32768, 2, 8, 32},
		{31, 14, 6, 8192, 32, 256, 32768, 1, 8, 64},
		{90, 10, 3, 8192, 64, 256, 4096, 1, 2, 32},
		{28, 38, 4, 512, 16, 8192, 16384, 3, 8, 16},
		{3, 60, 4, 4096, 8, 8192, 8192, 1, 2, 16},
		{68, 18, 4, 512, 64, 2048, 16384, 2, 8, 16},
		{5, 26, 4, 128, 32, 256, 8192, 1, 4, 64},
		{12, 0, 3, 128, 8, 4096, 8192, 3, 8, 32},
		{17, 27, 6, 64, 64, 4096, 16384, 2, 4, 64},
		{37, 55, 3, 16, 32, 256, 32768, 3, 8, 32},
		{28, 26, 4, 2048, 32, 4096, 8192, 2, 4, 64},
		{24, 0, 5, 8192, 32, 16384, 4096, 1, 2, 32},
		{34, 41, 3, 64, 32, 1024, 16384, 2, 8, 32},
		{50, 17, 2, 2048, 128, 256, 32768, 3, 16, 32},
		{61, 58, 4, 4096, 128, 512, 32768, 1, 4, 32},
		{24, 15, 3, 256, 16, 2048, 16384, 3, 8, 32},
		{57, 19, 7, 256, 64, 4096, 8192, 1, 16, 64},
		{80, 26, 4, 2048, 32, 8192, 32768, 3, 16, 32},
		{40, 38, 6, 128, 16, 32768, 8192, 1, 4, 32},
		{64, 16, 5, 512, 64, 1024, 8192, 2, 4, 64},
		{57, 12, 3, 2048, 128, 256, 16384, 3, 16, 32},
		{41, 30, 1, 2048, 32, 512, 16384, 3, 4, 32},
		{53, 22, 5, 512, 64, 2048, 16384, 2, 8, 64},
		{12, 21, 4, 128, 64, 256, 8192, 1, 4, 64},
		{63, 25, 4, 1024, 32, 4096, 16384, 3, 8, 32},
		{28, 33, 3, 1024, 32, 2048, 16384, 3, 8, 32},
		{29, 42, 5, 128, 8, 16384, 8192, 2, 4, 32},
		{50, 20, 3, 1024, 64, 512, 16384, 3, 8, 32},
		{15, 37, 4, 512, 32, 2048, 16384, 2, 8, 64},
		{57, 44, 5, 2048, 64, 2048, 16384, 2, 8, 64},
		{3, 20, 5, 256, 32, 1024, 32768, 2, 4, 32},
		{58, 35, 4, 1024, 32, 2048, 16384, 2, 8, 32},
		{68, 34, 3, 8192, 32, 512, 16384, 3, 16, 32},
		{29, 29, 5, 256, 64, 4096, 16384, 2, 4, 64},
		{50, 18, 5, 8192, 64, 4096, 16384, 2, 8, 64},
		{18, 32, 5, 1024, 64, 1024, 8192, 2, 4, 64},
	}
	for i, w := range want {
		tuner.Start()
		if got := reg.Vector(); !slices.Equal(got, w) {
			t.Fatalf("proposal %d = %v, want %v", i, got, w)
		}
		tuner.StopWithCost(pinCost(reg))
	}
}

// TestExhaustiveGridPinned pins the size and visit order of the strided
// §V-D4 grid walk under kdtune's -search exhaustive strides, for the 3-D
// (in-place) and 4-D (lazy) Table II subsets. The order is pinned by an
// FNV-1a hash over every visited full vector, so it also pins that the
// dimensions outside Table II stay at their base values.
func TestExhaustiveGridPinned(t *testing.T) {
	for _, tc := range []struct {
		algo        kdtree.Algorithm
		grid        int
		hash        uint64
		first, last []int
		best        []int
	}{
		{kdtree.AlgoInPlace, 252, 0xbf84c669a0948305,
			[]int{3, 0, 1, 32, 4096, 2048, 0, 1, 16}, []int{99, 60, 7, 32, 4096, 2048, 0, 1, 16},
			[]int{27, 20, 3}},
		{kdtree.AlgoLazy, 1260, 0xf611b98743f86d,
			[]int{3, 0, 1, 16, 32, 4096, 2048, 0, 1, 16}, []int{99, 60, 7, 4096, 32, 4096, 2048, 0, 1, 16},
			[]int{27, 20, 3, 4096}},
	} {
		t.Run(tc.algo.String(), func(t *testing.T) {
			reg, rc := pinRegistry(t, tc.algo)
			rc.Search = SearchExhaustive
			rc.ExhaustiveStrides = []int{12, 10, 2, 2}
			tuner, err := newTuner(rc, reg)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var first, last []int
			n := 0
			for ; !tuner.Converged(); n++ {
				tuner.Start()
				v := reg.Vector()
				if n == 0 {
					first = v
				}
				last = v
				for _, x := range v {
					fmt.Fprintf(h, "%d,", x)
				}
				h.Write([]byte{';'})
				tuner.StopWithCost(pinCost(reg))
			}
			if n != tc.grid {
				t.Fatalf("grid size = %d, want %d", n, tc.grid)
			}
			if !slices.Equal(first, tc.first) || !slices.Equal(last, tc.last) {
				t.Fatalf("walk ran %v .. %v, want %v .. %v", first, last, tc.first, tc.last)
			}
			if got := h.Sum64(); got != tc.hash {
				t.Fatalf("visit-order hash = %#x, want %#x", got, tc.hash)
			}
			if best, _, _ := tuner.Best(); !slices.Equal(best, tc.best) {
				t.Fatalf("grid optimum = %v, want %v", best, tc.best)
			}
		})
	}
}

// TestExhaustiveStridesValidated: Validate rejects more than four strides
// or a negative one; shorter lists (a missing trailing stride means 1) and
// an R stride on a grid without R run to completion on both the 3-D and the
// 4-D grid instead of panicking.
func TestExhaustiveStridesValidated(t *testing.T) {
	for _, tc := range []struct {
		algo    kdtree.Algorithm
		strides []int
		ok      bool
	}{
		{kdtree.AlgoInPlace, []int{49, 30, 7}, true},
		{kdtree.AlgoLazy, []int{49, 30, 7}, true},
		{kdtree.AlgoInPlace, []int{49, 30, 7, 5}, true},
		{kdtree.AlgoLazy, []int{49, 30, 7, 5}, true},
		{kdtree.AlgoLazy, []int{49}, true},
		{kdtree.AlgoLazy, nil, true},
		{kdtree.AlgoInPlace, []int{49, 30, 7, 5, 2}, false},
		{kdtree.AlgoLazy, []int{49, 30, 7, 5, 2}, false},
		{kdtree.AlgoInPlace, []int{49, -1, 7}, false},
		{kdtree.AlgoLazy, []int{49, 30, 7, -2}, false},
	} {
		name := fmt.Sprintf("%v/%v", tc.algo, tc.strides)
		rc := RunConfig{
			Scene: tinyScene(), Algorithm: tc.algo, Search: SearchExhaustive,
			ExhaustiveStrides: tc.strides, Workers: 1, Width: 8, Height: 6, MaxIterations: 2,
		}
		if err := rc.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", name, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if res := Run(rc); len(res.Frames) != 2 {
			t.Errorf("%s: ran %d frames, want 2", name, len(res.Frames))
		}
	}
}

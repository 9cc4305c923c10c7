package autotune

import (
	"math"
	"math/rand"
	"testing"
)

// mkParams builds two 0..100 step-1 parameters for white-box NM tests.
func mkParams() []*param {
	var a, b int
	va, _ := intervalValues(0, 100, 1)
	vb, _ := intervalValues(0, 100, 1)
	return []*param{
		{name: "a", target: &a, values: va},
		{name: "b", target: &b, values: vb},
	}
}

// drive feeds cost(cfg) to the searcher for n steps.
func drive(nm *nelderMead, cost func([]int) float64, n int) {
	for i := 0; i < n && !nm.Converged(); i++ {
		cfg := nm.Next()
		nm.Report(cfg, cost(cfg))
	}
}

func TestNMSeedingPhaseCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nm := newNelderMead(mkParams(), 7, rng)
	for i := 0; i < 7; i++ {
		if nm.phase != nmSeeding {
			t.Fatalf("step %d: expected seeding phase", i)
		}
		cfg := nm.Next()
		nm.Report(cfg, float64(i))
	}
	if nm.phase == nmSeeding {
		t.Fatal("still seeding after the seed budget")
	}
	if len(nm.simplex) != 3 {
		t.Fatalf("simplex size %d, want d+1=3", len(nm.simplex))
	}
}

func TestNMSeedBudgetClampedToDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nm := newNelderMead(mkParams(), 1, rng)
	if nm.seedBudget < 3 {
		t.Fatalf("seed budget %d below d+1", nm.seedBudget)
	}
}

func TestNMSimplexSortedBestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nm := newNelderMead(mkParams(), 6, rng)
	cost := func(cfg []int) float64 { return float64(cfg[0] + cfg[1]) }
	drive(nm, cost, 6)
	for i := 1; i < len(nm.simplex); i++ {
		if nm.simplex[i].cost < nm.simplex[i-1].cost {
			t.Fatal("simplex not sorted best-first")
		}
	}
}

func TestNMProposalsStayInUnitBox(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nm := newNelderMead(mkParams(), 4, rng)
	cost := func(cfg []int) float64 {
		// Push the search towards a corner to provoke clamping.
		return float64((100-cfg[0])*(100-cfg[0]) + cfg[1]*cfg[1])
	}
	for i := 0; i < 200 && !nm.Converged(); i++ {
		cfg := nm.Next()
		for d, p := range nm.params {
			if cfg[d] < 0 || cfg[d] >= len(p.values) {
				t.Fatalf("step %d: index %d out of range", i, cfg[d])
			}
		}
		nm.Report(cfg, cost(cfg))
	}
}

func TestNMConvergesAndStaysConverged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nm := newNelderMead(mkParams(), 6, rng)
	cost := func(cfg []int) float64 {
		dx, dy := float64(cfg[0]-30), float64(cfg[1]-70)
		return dx*dx + dy*dy
	}
	drive(nm, cost, 500)
	if !nm.Converged() {
		t.Fatal("did not converge on a smooth bowl")
	}
	// After convergence, Next keeps returning the same (best) point and
	// Report refreshes its cost without crashing.
	first := nm.Next()
	nm.Report(first, cost(first))
	second := nm.Next()
	for d := range first {
		if first[d] != second[d] {
			t.Fatal("post-convergence proposals changed")
		}
	}
	best := nm.snap(nm.simplex[0].x)
	if math.Abs(float64(best[0]-30)) > 5 || math.Abs(float64(best[1]-70)) > 5 {
		t.Fatalf("converged to %v, want near (30,70)", best)
	}
}

func TestNMRestartReseedsFromIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nm := newNelderMead(mkParams(), 5, rng)
	cost := func(cfg []int) float64 {
		dx, dy := float64(cfg[0]-20), float64(cfg[1]-20)
		return dx*dx + dy*dy
	}
	drive(nm, cost, 400)
	if !nm.Converged() {
		t.Fatal("phase 1 did not converge")
	}
	incumbent := nm.snap(nm.simplex[0].x)
	nm.restart(incumbent, 5)
	if nm.Converged() {
		t.Fatal("restart did not clear convergence")
	}
	// First proposal after restart is the incumbent itself.
	first := nm.Next()
	for d := range first {
		if first[d] != incumbent[d] {
			t.Fatalf("first post-restart proposal %v, want incumbent %v", first, incumbent)
		}
	}
}

func TestNMLiftSnapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nm := newNelderMead(mkParams(), 3, rng)
	for _, cfg := range [][]int{{0, 0}, {100, 100}, {50, 25}, {1, 99}} {
		back := nm.snap(nm.lift(cfg))
		if back[0] != cfg[0] || back[1] != cfg[1] {
			t.Fatalf("lift/snap round trip %v -> %v", cfg, back)
		}
	}
}

func TestNMSingleValueParameter(t *testing.T) {
	// A parameter with exactly one valid value must not divide by zero or
	// wedge the search.
	var a, b int
	va, _ := intervalValues(5, 5, 1)
	vb, _ := intervalValues(0, 10, 1)
	params := []*param{
		{name: "a", target: &a, values: va},
		{name: "b", target: &b, values: vb},
	}
	rng := rand.New(rand.NewSource(8))
	nm := newNelderMead(params, 4, rng)
	cost := func(cfg []int) float64 { d := float64(cfg[1] - 3); return d * d }
	drive(nm, cost, 300)
	best := nm.snap(nm.simplex[0].x)
	if best[0] != 0 {
		t.Fatalf("single-value parameter index %d", best[0])
	}
	if math.Abs(float64(vb[best[1]]-3)) > 3 {
		t.Fatalf("best b = %d, want near 3", vb[best[1]])
	}
}

func TestCellKeyDistinguishesConfigs(t *testing.T) {
	if cellKey([]int{1, 2}) == cellKey([]int{2, 1}) {
		t.Fatal("cellKey collision on permuted configs")
	}
	if cellKey([]int{256}) == cellKey([]int{0}) {
		t.Fatal("cellKey ignores high bytes")
	}
}

func TestSortVerticesStable(t *testing.T) {
	vs := []vertex{
		{x: []float64{1}, cost: 2},
		{x: []float64{2}, cost: 1},
		{x: []float64{3}, cost: 2},
	}
	sortVertices(vs)
	if vs[0].cost != 1 || vs[1].x[0] != 1 || vs[2].x[0] != 3 {
		t.Fatalf("sortVertices wrong/unstable: %+v", vs)
	}
}

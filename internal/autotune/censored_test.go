package autotune

import (
	"math"
	"testing"
)

func newCensorTuner(t *testing.T, opts Options) (*Tuner, *int) {
	t.Helper()
	v := new(int)
	return newTuner(t, opts, linear("v", v, 1, 20, 1)), v
}

func TestStopAbortedRequiresStart(t *testing.T) {
	tn, _ := newCensorTuner(t, Options{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatalf("StopAborted without Start did not panic")
		}
	}()
	tn.StopAborted()
}

func TestStopAbortedRecordsCensoredSample(t *testing.T) {
	tn, _ := newCensorTuner(t, Options{Seed: 1})

	tn.Start()
	tn.StopWithCost(100)
	tn.Start()
	tn.StopAborted()

	if got := tn.Censored(); got != 1 {
		t.Fatalf("Censored() = %d, want 1", got)
	}
	if got := tn.Iterations(); got != 2 {
		t.Fatalf("Iterations() = %d; aborted cycles count as iterations", got)
	}
	h := tn.History()
	if len(h) != 2 {
		t.Fatalf("history has %d samples, want 2", len(h))
	}
	if h[0].Censored || !h[1].Censored {
		t.Fatalf("censored flags wrong: %+v", h)
	}
	// Default AbortPenalty is 8× the best measured cost.
	if want := 800.0; h[1].Cost != want {
		t.Fatalf("censored cost %v, want %v", h[1].Cost, want)
	}
	if math.IsInf(h[1].Cost, 0) || math.IsNaN(h[1].Cost) {
		t.Fatalf("censored cost must stay finite for the simplex arithmetic")
	}
}

func TestAbortPenaltyOption(t *testing.T) {
	tn, _ := newCensorTuner(t, Options{Seed: 1, AbortPenalty: 50})
	tn.Start()
	tn.StopWithCost(2)
	tn.Start()
	tn.StopAborted()
	if got := tn.History()[1].Cost; got != 100 {
		t.Fatalf("censored cost %v, want AbortPenalty×best = 100", got)
	}

	// A nonsensical penalty factor (<=1 would rank aborts as good) falls
	// back to the default.
	tn2, _ := newCensorTuner(t, Options{Seed: 1, AbortPenalty: 0.5})
	tn2.Start()
	tn2.StopWithCost(2)
	tn2.Start()
	tn2.StopAborted()
	if got := tn2.History()[1].Cost; got != 16 {
		t.Fatalf("censored cost %v, want default 8×best = 16", got)
	}
}

func TestPenaltyWithoutAnyMeasurement(t *testing.T) {
	// The very first cycle aborts: no best, no incumbent. The penalty must
	// be the large finite fallback, not Inf/NaN/zero.
	tn, _ := newCensorTuner(t, Options{Seed: 1})
	tn.Start()
	tn.StopAborted()
	got := tn.History()[0].Cost
	if got != abortFallbackCost {
		t.Fatalf("first-cycle censored cost %v, want fallback %v", got, abortFallbackCost)
	}
	// And Best has nothing to answer with: the only sample is censored.
	if _, _, ok := tn.Best(); ok {
		t.Fatalf("Best() returned a censored configuration")
	}
	if tn.ApplyBest() {
		t.Fatalf("ApplyBest() applied a censored configuration")
	}
}

// TestBestNeverReturnsCensoredConfig: even when the penalized cost would
// numerically beat the measured ones, a censored sample must not become the
// incumbent.
func TestBestNeverReturnsCensoredConfig(t *testing.T) {
	tn, v := newCensorTuner(t, Options{Seed: 3})

	// One expensive real measurement, then an abort. The penalty (8×best)
	// is higher, but drive the point home across many aborts at varied
	// configurations: Best must keep answering with the measured one.
	tn.Start()
	measured := *v
	tn.StopWithCost(7)
	for i := 0; i < 10; i++ {
		tn.Start()
		tn.StopAborted()
	}
	vals, cost, ok := tn.Best()
	if !ok {
		t.Fatalf("Best() lost the measured configuration")
	}
	if cost != 7 || vals[0] != measured {
		t.Fatalf("Best() = %v at %v, want the measured config %d at 7", vals, cost, measured)
	}
	for _, s := range tn.History()[1:] {
		if !s.Censored {
			t.Fatalf("expected all later samples censored: %+v", s)
		}
		if s.Cost < 7 {
			t.Fatalf("a censored sample undercut the measured best: %+v", s)
		}
	}
}

// TestAbortsDriveRetune: once converged, repeated aborts of the incumbent
// region are definitionally bad cycles and must trigger drift re-tuning.
func TestAbortsDriveRetune(t *testing.T) {
	tn, v := newCensorTuner(t, Options{Seed: 5, RetuneThreshold: 1.5, RetuneWindow: 3})
	cost := func(vals []int) float64 { return float64((vals[0]-10)*(vals[0]-10) + 1) }
	driveTuner(tn, cost, 400, v)
	if !tn.Converged() {
		t.Skip("search did not converge; retune path not reachable")
	}
	before := tn.Restarts()
	for i := 0; i < 3; i++ {
		if tn.Converged() {
			tn.Start()
			tn.StopAborted()
		}
	}
	if tn.Restarts() != before+1 {
		t.Fatalf("3 consecutive aborts after convergence: restarts %d -> %d, want a re-tune",
			before, tn.Restarts())
	}
}

// TestCensoredSamplesSteerSearchAway: a cost cliff implemented via aborts
// (instead of huge measured costs) must still steer Nelder–Mead into the
// measurable region and keep the final best outside the cliff.
func TestCensoredSamplesSteerSearchAway(t *testing.T) {
	tn, v := newCensorTuner(t, Options{Seed: 11})
	for i := 0; i < 300; i++ {
		tn.Start()
		if *v >= 15 { // configurations past the cliff never finish building
			tn.StopAborted()
		} else {
			tn.StopWithCost(float64((*v-8)*(*v-8) + 2))
		}
		if tn.Converged() {
			break
		}
	}
	vals, cost, ok := tn.Best()
	if !ok {
		t.Fatalf("no best found")
	}
	if vals[0] >= 15 {
		t.Fatalf("best landed inside the abort cliff: %v", vals)
	}
	if cost >= tn.penaltyCost() {
		t.Fatalf("best cost %v is a penalty, not a measurement", cost)
	}
}

// TestCensoredGrainDimensionsAvoidExtremes is the registry-level version of
// the cliff test for the PR 8 build tunables: grain dimensions registered
// through a Registry whose extreme values wedge the build (guard abort →
// StopAborted). The search must converge onto a finishable grain, and the
// name-keyed best must stay out of the censored region.
func TestCensoredGrainDimensionsAvoidExtremes(t *testing.T) {
	grain, bins := 4096, 32
	reg := NewRegistry()
	if err := reg.Register(Tunable{Name: "G", Target: &grain, Min: 256, Max: 65536, Scale: ScalePow2,
		Desc: "scatter grain"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(Tunable{Name: "B", Target: &bins, Min: 8, Max: 128, Scale: ScalePow2,
		Desc: "SAH bins"}); err != nil {
		t.Fatal(err)
	}
	tn := New(Options{Seed: 17})
	if err := tn.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	aborted := 0
	for i := 0; i < 400; i++ {
		tn.Start()
		if grain >= 32768 {
			// An extreme grain serializes the build past the deadline:
			// every probe there is a guard abort, never a measurement.
			aborted++
			tn.StopAborted()
		} else {
			g := math.Log2(float64(grain))
			b := math.Log2(float64(bins))
			tn.StopWithCost((g-11)*(g-11) + (b-5)*(b-5) + 1)
		}
		if tn.Converged() {
			break
		}
	}
	if aborted == 0 {
		t.Skip("search never probed the extreme-grain region; censoring not exercised")
	}
	best, ok := tn.BestByName()
	if !ok {
		t.Fatalf("no best configuration after censored cycles")
	}
	if best["G"] >= 32768 {
		t.Fatalf("best grain %d sits inside the censored region", best["G"])
	}
	if _, ok := best["B"]; !ok {
		t.Fatalf("BestByName dropped the bins dimension: %v", best)
	}
}

package harness

import (
	"math"
	"testing"
	"time"

	"kdtune/internal/kdtree"
)

func framesWithTotals(totals ...time.Duration) []FrameRecord {
	out := make([]FrameRecord, len(totals))
	for i, d := range totals {
		out[i] = FrameRecord{Iteration: i, Total: d}
	}
	return out
}

func TestSteadyStateTimeEdges(t *testing.T) {
	cases := []struct {
		name   string
		totals []time.Duration
		want   time.Duration
	}{
		{"empty run", nil, 0},
		{"single frame", []time.Duration{7 * time.Millisecond}, 7 * time.Millisecond},
		{"two frames keeps tail only", []time.Duration{100 * time.Millisecond, 4 * time.Millisecond},
			4 * time.Millisecond},
		{"three frames drops first two thirds",
			[]time.Duration{90 * time.Millisecond, 80 * time.Millisecond, 5 * time.Millisecond},
			5 * time.Millisecond},
		{"median of tail is outlier robust",
			[]time.Duration{
				50 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond,
				2 * time.Millisecond, 3 * time.Millisecond, 400 * time.Millisecond,
			},
			3 * time.Millisecond},
		{"zero durations stay zero", []time.Duration{0, 0, 0}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &RunResult{Frames: framesWithTotals(tc.totals...)}
			if got := r.SteadyStateTime(); got != tc.want {
				t.Errorf("SteadyStateTime() = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSpeedupTraceEdges(t *testing.T) {
	cases := []struct {
		name   string
		totals []time.Duration
		base   time.Duration
		want   []float64
	}{
		{"empty run yields empty trace", nil, time.Second, []float64{}},
		{"single frame", []time.Duration{50 * time.Millisecond}, 100 * time.Millisecond, []float64{2}},
		{"zero frame time maps to zero not Inf",
			[]time.Duration{0, 25 * time.Millisecond}, 50 * time.Millisecond, []float64{0, 2}},
		{"zero base gives zero speedups",
			[]time.Duration{10 * time.Millisecond, 20 * time.Millisecond}, 0, []float64{0, 0}},
		{"slowdown is fractional",
			[]time.Duration{40 * time.Millisecond}, 10 * time.Millisecond, []float64{0.25}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &RunResult{Frames: framesWithTotals(tc.totals...)}
			got := r.SpeedupTrace(tc.base)
			if len(got) != len(tc.want) {
				t.Fatalf("trace length %d, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if math.Abs(got[i]-tc.want[i]) > 1e-12 || math.IsInf(got[i], 0) || math.IsNaN(got[i]) {
					t.Errorf("trace[%d] = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestBestConfigEdges(t *testing.T) {
	cases := []struct {
		name string
		res  RunResult
		want kdtree.Config
	}{
		{
			"zero-value result yields zero parameters",
			RunResult{},
			kdtree.Config{},
		},
		{
			"best parameters and run identity are carried over",
			RunResult{
				Config:      RunConfig{Algorithm: kdtree.AlgoLazy, Workers: 3, Base: kdtree.Config{R: 64}},
				TunedParams: map[string]int{"CI": 42, "CB": 7, "S": 5, "R": 1024, "B": 16, "G": 512, "GB": 2048, "SB": 1, "P": 4},
			},
			kdtree.Config{Algorithm: kdtree.AlgoLazy, CI: 42, CB: 7, S: 5, R: 1024, Workers: 3,
				Bins: 16, ScatterGrain: 512, BinGrain: 2048, SplitBias: 1},
		},
		{
			"frames and convergence metadata do not leak into the config",
			RunResult{
				Config:      RunConfig{Algorithm: kdtree.AlgoNested, Base: kdtree.Config{R: RMax}},
				Frames:      framesWithTotals(time.Millisecond),
				ConvergedAt: 17, Restarts: 2,
				TunedParams: map[string]int{"CI": CIMin, "CB": CBMax, "S": SMin},
			},
			kdtree.Config{Algorithm: kdtree.AlgoNested, CI: CIMin, CB: CBMax, S: SMin, R: RMax},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.res.BestConfig(); got != tc.want {
				t.Errorf("BestConfig() = %+v, want %+v", got, tc.want)
			}
		})
	}
}

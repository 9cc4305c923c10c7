package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kdtune/internal/kdtree"
)

// Golden-file tests pin the exact text of the experiment artefacts (CSV
// exports and figure renderings) so formatting drift is a deliberate,
// reviewed change. Regenerate with:
//
//	go test ./internal/harness/ -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update if intended):\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// goldenCells is a fixed Figure 5/6 dataset with the shapes worth pinning:
// sub-millisecond times, >1 and <1 speedups, and an unconverged run.
func goldenCells() []SpeedupCell {
	return []SpeedupCell{
		{Scene: "Sponza", Algorithm: kdtree.AlgoNodeLevel,
			Base: 42500 * time.Microsecond, Tuned: 31300 * time.Microsecond,
			TunedCI: 35, TunedCB: 12, TunedS: 4, TunedR: 256, ConvergedAt: 38},
		{Scene: "Sponza", Algorithm: kdtree.AlgoLazy,
			Base: 880 * time.Microsecond, Tuned: 910 * time.Microsecond,
			TunedCI: 17, TunedCB: 10, TunedS: 3, TunedR: 4096, ConvergedAt: -1},
		{Scene: "Toasters", Algorithm: kdtree.AlgoInPlace,
			Base: 12 * time.Millisecond, Tuned: 6 * time.Millisecond,
			TunedCI: 80, TunedCB: 0, TunedS: 8, TunedR: 16, ConvergedAt: 51},
	}
}

func goldenDistributions() []ParamDistribution {
	return []ParamDistribution{
		{Label: "Sponza", Param: "CI",
			Summary: Summary{Min: 10, Q1: 22.5, Median: 40, Q3: 57.25, Max: 95, Mean: 43.75, N: 15}},
		{Label: "Sponza", Param: "R",
			Summary: Summary{Min: 0, Q1: 0, Median: 33.3333, Q3: 66.6667, Max: 100, Mean: 40, N: 15}},
		{Label: "FairyForest", Param: "CB",
			Summary: Summary{Min: 5, Q1: 5, Median: 5, Q3: 5, Max: 5, Mean: 5, N: 1}},
	}
}

func goldenConvergence() []ConvergencePoint {
	return []ConvergencePoint{
		{Iteration: 0, MeanSpeedup: 1},
		{Iteration: 1, MeanSpeedup: 0.8437},
		{Iteration: 2, MeanSpeedup: 1.52},
	}
}

func TestGoldenCSV(t *testing.T) {
	cases := []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"speedup.csv", func(b *bytes.Buffer) error { return WriteSpeedupCSV(b, goldenCells()) }},
		{"distribution.csv", func(b *bytes.Buffer) error { return WriteDistributionCSV(b, goldenDistributions()) }},
		{"convergence.csv", func(b *bytes.Buffer) error { return WriteConvergenceCSV(b, goldenConvergence()) }},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.file, buf.Bytes())
		})
	}
}

func TestGoldenFigures(t *testing.T) {
	cases := []struct {
		file  string
		write func(*bytes.Buffer)
	}{
		{"figure5.txt", func(b *bytes.Buffer) { PrintFigure5(b, goldenCells()) }},
		{"figure6.txt", func(b *bytes.Buffer) { PrintFigure6(b, goldenCells()) }},
		{"figure7.txt", func(b *bytes.Buffer) { PrintFigure7(b, "Figure 7a: per-scene", goldenDistributions()) }},
		{"figure8.txt", func(b *bytes.Buffer) { PrintFigure8(b, "Sponza", goldenConvergence()) }},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			var buf bytes.Buffer
			tc.write(&buf)
			checkGolden(t, tc.file, buf.Bytes())
		})
	}
}

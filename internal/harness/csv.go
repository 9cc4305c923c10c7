package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV export of experiment results, so the figures can be re-plotted with
// external tooling without re-running the (expensive) measurements.

// WriteSpeedupCSV dumps Figure 5/6 cells: one row per (scene, algorithm).
func WriteSpeedupCSV(w io.Writer, cells []SpeedupCell) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"scene", "algorithm", "base_seconds", "tuned_seconds", "speedup",
		"tuned_ci", "tuned_cb", "tuned_s", "tuned_r", "converged_at",
	}); err != nil {
		return err
	}
	for _, c := range cells {
		err := cw.Write([]string{
			c.Scene, c.Algorithm.String(),
			fmt.Sprintf("%.6f", c.Base.Seconds()),
			fmt.Sprintf("%.6f", c.Tuned.Seconds()),
			fmt.Sprintf("%.4f", c.Speedup()),
			strconv.Itoa(c.TunedCI), strconv.Itoa(c.TunedCB),
			strconv.Itoa(c.TunedS), strconv.Itoa(c.TunedR),
			strconv.Itoa(c.ConvergedAt),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteDistributionCSV dumps Figure 7 box summaries.
func WriteDistributionCSV(w io.Writer, dists []ParamDistribution) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"label", "param", "min", "q1", "median", "q3", "max", "mean", "n"}); err != nil {
		return err
	}
	for _, d := range dists {
		s := d.Summary
		err := cw.Write([]string{
			d.Label, d.Param,
			fmt.Sprintf("%.4f", s.Min), fmt.Sprintf("%.4f", s.Q1),
			fmt.Sprintf("%.4f", s.Median), fmt.Sprintf("%.4f", s.Q3),
			fmt.Sprintf("%.4f", s.Max), fmt.Sprintf("%.4f", s.Mean),
			strconv.Itoa(s.N),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteConvergenceCSV dumps a Figure 8 curve.
func WriteConvergenceCSV(w io.Writer, pts []ConvergencePoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"iteration", "mean_speedup"}); err != nil {
		return err
	}
	for _, p := range pts {
		if err := cw.Write([]string{strconv.Itoa(p.Iteration), fmt.Sprintf("%.4f", p.MeanSpeedup)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

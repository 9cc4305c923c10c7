package harness

import (
	"fmt"
	"io"
	"time"

	"kdtune/internal/kdtree"
	"kdtune/internal/scene"
)

// The paper's conclusion leaves one degree of freedom unexamined: "the
// question of which algorithm creates the best performance for a given
// scene and given hardware", noting that search techniques cannot handle a
// nominal (unordered) algorithm parameter, so the practical approach is
// "optimizing one algorithm after another and then picking the best". This
// file implements exactly that strategy.

// AlgorithmChoice is the outcome of tuning one algorithm during selection.
type AlgorithmChoice struct {
	Algorithm   kdtree.Algorithm
	Tuned       time.Duration // steady-state frame time after tuning
	Config      kdtree.Config // the tuned configuration (RunResult.BestConfig)
	ConvergedAt int
}

// Selection is the result of SelectAlgorithm.
type Selection struct {
	Scene   string
	Choices []AlgorithmChoice // one per algorithm, paper order
	Best    AlgorithmChoice
}

// SelectAlgorithm tunes every construction algorithm on the scene, one
// after another, and returns the algorithm + configuration with the best
// steady-state frame time — the paper's suggested treatment of the nominal
// algorithm parameter.
func SelectAlgorithm(sc *scene.Scene, o Opts) Selection {
	o = o.normalize()
	sel := Selection{Scene: sc.Name}
	for _, algo := range kdtree.Algorithms {
		res := Run(RunConfig{
			Scene: sc, Algorithm: algo, Search: SearchNelderMead,
			Workers: o.Workers, Width: o.Width, Height: o.Height,
			MaxIterations: o.MaxIterations, Seed: o.Seed,
		})
		// Compare algorithms on re-measured tuned configurations, not on
		// tuning-run tails (see SpeedupExperiment).
		best := res.BestConfig()
		tuned := MeasureFixed(RunConfig{
			Scene: sc, Algorithm: algo, Workers: o.Workers,
			Width: o.Width, Height: o.Height, Base: best,
		}, o.BaseFrames)
		choice := AlgorithmChoice{
			Algorithm: algo, Tuned: tuned, Config: best,
			ConvergedAt: res.ConvergedAt,
		}
		sel.Choices = append(sel.Choices, choice)
		o.logf("select %-12s %-10s tuned %s", sc.Name, algo, choice.Tuned.Round(time.Millisecond))
		if sel.Best.Tuned == 0 || choice.Tuned < sel.Best.Tuned {
			sel.Best = choice
		}
	}
	return sel
}

// PrintSelection renders the per-algorithm results and the winner.
func PrintSelection(w io.Writer, sel Selection) {
	fmt.Fprintf(w, "Algorithm selection on %s (tune each variant, pick the best):\n", sel.Scene)
	for _, c := range sel.Choices {
		marker := " "
		if c.Algorithm == sel.Best.Algorithm {
			marker = "*"
		}
		fmt.Fprintf(w, "%s %-10s %10s  C=(%d,%d,%d,%d)\n",
			marker, c.Algorithm, c.Tuned.Round(100*time.Microsecond),
			int(c.Config.CI), int(c.Config.CB), c.Config.S, c.Config.R)
	}
}

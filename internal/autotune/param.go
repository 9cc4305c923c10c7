// Package autotune reimplements the online autotuner the paper builds on
// (AtuneRT, Karcher & Pankratius / Tillmann et al.): an application-agnostic
// tuner that optimises integer program variables registered by the client,
// measuring one configuration per Start/Stop cycle and searching the
// configuration space with random sampling that seeds a Nelder–Mead simplex
// search (§III-A).
//
// The client workflow matches the paper's Figure 1, with every tuned
// variable declared once in a Registry:
//
//	reg := autotune.NewRegistry()
//	reg.Register(autotune.Tunable{Name: "N", Target: &n, Min: min, Max: max, Step: step})
//	tuner := autotune.New(autotune.Options{})
//	tuner.RegisterAll(reg)
//	for work() {
//		tuner.Start() // applies the configuration under test
//		doTunedWork(n)
//		tuner.Stop()  // records the measurement, picks the next config
//	}
package autotune

import "fmt"

// param is one tunable as the searchers see it: a target variable and the
// discrete set of values it may take (τ in the paper's formalisation —
// most tuning parameters are closed integer intervals, §III-A).
type param struct {
	name   string
	target *int
	values []int // ascending
}

// apply writes the value at index idx into the client variable.
func (p *param) apply(idx int) { *p.target = p.values[idx] }

// clampIndex snaps an arbitrary index into the valid range.
func (p *param) clampIndex(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(p.values) {
		return len(p.values) - 1
	}
	return i
}

// intervalValues enumerates min..max with the given stride.
func intervalValues(min, max, step int) ([]int, error) {
	if step <= 0 {
		return nil, fmt.Errorf("autotune: step %d must be positive", step)
	}
	if max < min {
		return nil, fmt.Errorf("autotune: empty range [%d,%d]", min, max)
	}
	var vals []int
	for v := min; v <= max; v += step {
		vals = append(vals, v)
	}
	return vals, nil
}

// pow2Values enumerates the powers of two in [min,max], e.g. the paper's
// τ_R = [16, 8192] limited to powers of 2 (Table II).
func pow2Values(min, max int) ([]int, error) {
	if min < 1 || max < min {
		return nil, fmt.Errorf("autotune: bad power-of-two range [%d,%d]", min, max)
	}
	var vals []int
	for v := 1; v <= max; v *= 2 {
		if v >= min {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("autotune: no powers of two in [%d,%d]", min, max)
	}
	return vals, nil
}

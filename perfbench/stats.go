package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"kdtune/internal/harness"
)

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by harness.Percentile, the
// repository's one percentile definition (NaN when empty). xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return harness.Percentile(s, q)
}

// mean returns the mean of xs by harness.Summarize (NaN when empty). xs is
// not modified.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return harness.Summarize(append([]float64(nil), xs...)).Mean
}

// geomean returns the geometric mean of xs (NaN when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// opLog records the operations of one measurement: the latency of every
// completed operation by variant, and how many were attempted, failed, or
// answered within the workload's limits. It is safe for concurrent use.
type opLog struct {
	mu        sync.Mutex
	variants  []string             // end-to-end variants in first-seen order
	lat       map[string][]float64 // end-to-end variant -> latencies (ms)
	aux       map[string][]float64 // operations outside the end-to-end metrics
	attempted int
	failed    int
	ok        int
	// failedChecks counts failed correctness checks; any makes the run fail.
	failedChecks int
	log          io.Writer
}

func newOpLog(log io.Writer) *opLog {
	return &opLog{lat: map[string][]float64{}, aux: map[string][]float64{}, log: log}
}

// done records a completed operation of the given end-to-end variant. ok is
// false when it completed degraded or over the workload's latency limit.
func (l *opLog) done(variant string, ms float64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, seen := l.lat[variant]; !seen {
		l.variants = append(l.variants, variant)
	}
	l.lat[variant] = append(l.lat[variant], ms)
	l.attempted++
	if ok {
		l.ok++
	}
}

// doneAux records a completed operation that the end-to-end latency
// metrics leave out: single-worker baseline frames and probe checks.
func (l *opLog) doneAux(variant string, ms float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.aux[variant] = append(l.aux[variant], ms)
	l.attempted++
	l.ok++
}

// fail records an operation that failed or was refused.
func (l *opLog) fail(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.failed++
	fmt.Fprintf(l.log, "perfbench: failed: "+format+"\n", args...)
}

// wrong records an operation whose output failed a correctness check.
func (l *opLog) wrong(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	l.failed++
	l.failedChecks++
	fmt.Fprintf(l.log, "perfbench: CHECK FAILED: "+format+"\n", args...)
}

// merge adds the operations of o to l.
func (l *opLog) merge(o *opLog) {
	l.mu.Lock()
	defer l.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, v := range o.variants {
		if _, seen := l.lat[v]; !seen {
			l.variants = append(l.variants, v)
		}
		l.lat[v] = append(l.lat[v], o.lat[v]...)
	}
	for v, xs := range o.aux {
		l.aux[v] = append(l.aux[v], xs...)
	}
	l.attempted += o.attempted
	l.failed += o.failed
	l.ok += o.ok
	l.failedChecks += o.failedChecks
}

// p50 is the geometric mean over the variants of each variant's median
// latency, so every variant weighs the same however many operations it ran.
func (l *opLog) p50() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var meds []float64
	for _, v := range l.variants {
		meds = append(meds, median(l.lat[v]))
	}
	return geomean(meds)
}

func (l *opLog) pooled() []float64 {
	var all []float64
	for _, v := range l.variants {
		all = append(all, l.lat[v]...)
	}
	return all
}

// endToEnd returns the latency and success metrics of the log.
func (l *opLog) endToEnd() map[string]metric {
	p50 := l.p50()
	l.mu.Lock()
	defer l.mu.Unlock()
	all := l.pooled()
	return map[string]metric{
		"p50_ms":  {p50, "ms"},
		"p90_ms":  {quantile(all, 0.90), "ms"},
		"mean_ms": {mean(all), "ms"},
		"ok_frac": {float64(l.ok) / float64(max(l.attempted, 1)), "ratio"},
	}
}

// report prints the per-variant sample counts and medians.
func (l *opLog) report(w io.Writer, label string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(w, "perfbench: %s: attempted=%d failed=%d ok=%d checks_failed=%d n=%d\n",
		label, l.attempted, l.failed, l.ok, l.failedChecks, len(l.pooled()))
	for _, v := range l.variants {
		xs := l.lat[v]
		fmt.Fprintf(w, "  %-24s n=%-5d p50=%9.3f ms  p99=%9.3f ms\n", v, len(xs), median(xs), quantile(xs, 0.99))
	}
	var aux []string
	for v := range l.aux {
		aux = append(aux, v)
	}
	sort.Strings(aux)
	for _, v := range aux {
		xs := l.aux[v]
		fmt.Fprintf(w, "  %-24s n=%-5d p50=%9.3f ms  (not end-to-end)\n", v, len(xs), median(xs))
	}
}

// layerObs collects per-layer samples during a traced run; each metric is
// reported as the median of its samples. A nil *layerObs ignores samples,
// which is how untraced measurements skip the bookkeeping.
type layerObs struct {
	mu    sync.Mutex
	vals  map[string][]float64
	units map[string]string
}

func newLayerObs() *layerObs {
	return &layerObs{vals: map[string][]float64{}, units: map[string]string{}}
}

func (lo *layerObs) add(name, unit string, v float64) {
	if lo == nil {
		return
	}
	lo.mu.Lock()
	defer lo.mu.Unlock()
	lo.vals[name] = append(lo.vals[name], v)
	lo.units[name] = unit
}

func (lo *layerObs) has(name string) bool {
	lo.mu.Lock()
	defer lo.mu.Unlock()
	return len(lo.vals[name]) > 0
}

func (lo *layerObs) median(name string) float64 {
	lo.mu.Lock()
	defer lo.mu.Unlock()
	return median(lo.vals[name])
}

func (lo *layerObs) metrics() map[string]metric {
	lo.mu.Lock()
	defer lo.mu.Unlock()
	out := make(map[string]metric, len(lo.vals))
	for name, xs := range lo.vals {
		out[name] = metric{median(xs), lo.units[name]}
	}
	return out
}

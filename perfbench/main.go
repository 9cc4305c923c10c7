// Command perfbench is the repository's end-to-end benchmark: it drives the
// pipeline scene → sah → kdtree (on the parallel substrate) → render →
// harness/autotune → serve from outside, through the public functions of
// each layer, and prints one JSON result line.
//
//	perfbench --workload rebuild --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the workload untraced and prints the end-to-end
// metrics. --trace 1 measures it untraced and with spans recorded around
// every call into a layer, half the budget each, runs the per-layer probes,
// writes the spans to $CARGO_TARGET_DIR/spans-<workload>-<seed>.json
// (default directory .bench_build) and prints the per-layer metrics plus the
// tracing overhead. Any failed correctness check makes the run exit 1. See
// README.md for the workloads and the layer → metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configures one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // where the traced run writes its spans; "" skips writing

	// corrupt, when non-nil, rewrites the expected side of every checksum
	// comparison. Tests use it to prove that a wrong frame fails the run.
	corrupt func(uint64) uint64
}

// A run sets its workload up at least minSetups times and until setupFor
// has passed (at most maxSetups times); setup_s is the median, so one slow
// set-up does not move it, and a millisecond set-up (tune's) is sampled
// across the whole window rather than in one short burst of the host.
const (
	minSetups = 3
	maxSetups = 1000
	setupFor  = 2 * time.Second
)

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: rebuild, walkthrough, tune or serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	o.trace = traceFlag != 0
	if o.trace {
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		o.spans = filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	}
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// state is a set-up workload.
type state interface {
	// measure runs the workload's operations for about d, recording spans
	// into tr when it is non-nil and layer observations into lo.
	measure(d time.Duration, tr *tracer, lo *layerObs) *opLog
	// probeScene names the scene the per-layer probes run on.
	probeScene() string
	close()
}

// workloads maps each workload to its set-up, which builds the workload's
// state from the seed. README.md says why each workload exists.
var workloads = map[string]func(o options, log io.Writer) (state, error){
	"rebuild":     setupRebuild,
	"walkthrough": setupWalkthrough,
	"tune":        setupTune,
	"serve":       setupServe,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one benchmark run and returns its result. Diagnostics go to
// log.
func run(o options, log io.Writer) (*result, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	fmt.Fprintf(log, "perfbench: workload=%s seed=%d seconds=%g trace=%v NumCPU=%d GOMAXPROCS=%d %s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var st state
	var setups []float64
	for begin := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(begin) < setupFor); {
		if st != nil {
			st.close()
		}
		// Every set-up starts from a collected heap, as in a fresh process,
		// so garbage from the previous one is not charged to it.
		runtime.GC()
		start := time.Now()
		s, err := setup(o, log)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		st = s
	}
	defer st.close()

	budget := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	if !o.trace {
		ops := st.measure(budget, nil, nil)
		ops.report(log, "untraced")
		res.Correct, res.Attempted, res.Failed = ops.failedChecks == 0, ops.attempted, ops.failed
		for k, v := range ops.endToEnd() {
			res.Metrics[k] = v
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["live_heap_mb"] = metric{liveHeapMiB(), "MiB"}
		return finish(res, endToEndNames)
	}

	// Traced run: the same operations untraced and traced, half the budget
	// each in alternating quarters (so a drifting host biases neither side),
	// then the per-layer probes on the traced side.
	tr := newTracer(o.workload)
	lo := newLayerObs()
	plain, traced := newOpLog(log), newOpLog(log)
	for i := 0; i < 2; i++ {
		plain.merge(st.measure(budget/4, nil, nil))
		traced.merge(st.measure(budget/4, tr, lo))
	}
	plain.report(log, "untraced")
	traced.report(log, "traced")
	pr := newProber(o, tr, lo, log)
	if err := pr.run(st.probeScene()); err != nil {
		return nil, fmt.Errorf("%s probes: %w", o.workload, err)
	}
	all := newOpLog(log)
	for _, ops := range []*opLog{plain, traced, pr.ops} {
		all.merge(ops)
	}
	res.Correct, res.Attempted, res.Failed = all.failedChecks == 0, all.attempted, all.failed
	for k, v := range lo.metrics() {
		res.Metrics[k] = v
	}
	overhead := 100 * (traced.p50() - plain.p50()) / plain.p50()
	res.Metrics["trace.overhead_pct"] = metric{overhead, "%"}
	res.Metrics["error_rate"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
	tr.selfTimes()
	tr.summary(log)
	if o.spans != "" {
		if err := tr.write(o.spans, o.seed); err != nil {
			return nil, err
		}
	}
	return finish(res, perLayerNames())
}

// finish returns res once it carries exactly names. A run with a failed
// check or operation is returned as it is, minus the metrics its failures
// left without samples, so the caller still prints it and exits 1.
func finish(res *result, names []string) (*result, error) {
	if !res.Correct || res.Failed > 0 {
		for n, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				delete(res.Metrics, n)
			}
		}
		return res, nil
	}
	return res, complete(res, names)
}

// complete reports a result whose metrics are not exactly names, each a
// finite number: a benchmark bug, never a property of the program.
func complete(res *result, names []string) error {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
		m, ok := res.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	for n := range res.Metrics {
		if !want[n] {
			return fmt.Errorf("metric %s is not declared", n)
		}
	}
	return nil
}

// liveHeapMiB is the Go heap in use after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

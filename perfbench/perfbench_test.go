package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaredMetricsMatchCode keeps BENCHMARK.json and the code's metric
// lists in step, so a run never prints an undeclared metric.
func TestDeclaredMetricsMatchCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	var e2e, layer, wl []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
	}
	same := func(what string, got, want []string) {
		got = append([]string(nil), got...)
		want = append([]string(nil), want...)
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d, code has %d:\n%v\n%v", what, len(got), len(want), got, want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: BENCHMARK.json %q, code %q", what, got[i], want[i])
			}
		}
	}
	same("end_to_end", e2e, endToEndNames)
	same("per_layer", layer, perLayerNames())
	same("workloads", wl, workloadNames())
}

// TestShortRunsPrintEveryMetric runs every workload on a short budget,
// untraced and traced, and checks that each prints exactly the metrics
// BENCHMARK.json declares, each with its declared unit, and passes its
// correctness checks. It takes a few minutes on two cores.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			res, err := run(options{workload: w.Name, seed: 7, seconds: 0.5, trace: traced}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedChecksumFailsRun flips one bit of every expected checksum:
// each workload with a checksum check must then report an incorrect run.
func TestCorruptedChecksumFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three workloads")
	}
	flip := func(sum uint64) uint64 { return sum ^ 1 }
	for _, w := range []string{"rebuild", "walkthrough", "serve"} {
		res, err := run(options{workload: w, seed: 7, seconds: 0.5, corrupt: flip}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted checksum passed: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// TestSelfTimeSubtractsChildUnion checks self time against overlapping
// and nested children.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer("test")
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	tr.record(1, 0, "bench", "root", at(0), at(100))
	tr.record(2, 1, "kdtree", "a", at(10), at(40))
	tr.record(3, 1, "render", "b", at(30), at(60)) // overlaps a: union 10..60
	tr.record(4, 1, "serve", "c", at(90), at(120)) // clipped to the root: 90..100
	tr.record(5, 2, "sah", "d", at(15), at(25))
	tr.selfTimes()
	want := map[int64]time.Duration{1: 40, 2: 20, 3: 30, 4: 30, 5: 10}
	for _, s := range tr.spans {
		if got := time.Duration(s.SelfNS); got != want[s.ID]*time.Millisecond {
			t.Errorf("span %d self %v, want %v", s.ID, got, want[s.ID]*time.Millisecond)
		}
	}
}

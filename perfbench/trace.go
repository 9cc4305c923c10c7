package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Parent is the id of the enclosing span (0 for a
// root); SelfNS is the duration minus the part its children cover.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing: untraced measurements call the same helpers and pay only the
// clock reads they need anyway.
type tracer struct {
	workload string
	epoch    time.Time
	next     atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// do runs fn as a span of layer/name under parent and returns its wall
// time. fn receives the span's id, to parent the spans it opens.
func (t *tracer) do(parent int64, layer, name string, fn func(id int64)) time.Duration {
	var id int64
	if t != nil {
		id = t.next.Add(1)
	}
	start := time.Now()
	fn(id)
	end := time.Now()
	if t != nil {
		t.record(id, parent, layer, name, start, end)
	}
	return end.Sub(start)
}

// record stores a span measured by the caller (used where the start time is
// a schedule, not a clock read inside do).
func (t *tracer) record(id, parent int64, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.next.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name, Workload: t.workload,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// selfTimes fills SelfNS on every span: its duration minus the union of its
// children's intervals, clipped to the span (children may overlap when they
// run concurrently).
func (t *tracer) selfTimes() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			lo, hi := max(t.spans[k].StartNS, s.StartNS), min(t.spans[k].EndNS, s.EndNS)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		for j, iv := range ivs {
			switch {
			case j == 0:
				curLo, curHi = iv[0], iv[1]
			case iv[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			case iv[1] > curHi:
				curHi = iv[1]
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		s.SelfNS = s.EndNS - s.StartNS - covered
	}
}

// layerSelf sums self time per layer.
func (t *tracer) layerSelf() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Layer] += time.Duration(s.SelfNS)
	}
	return out
}

// summary prints the span count and self time per layer; call selfTimes
// first.
func (t *tracer) summary(w io.Writer) {
	self := t.layerSelf()
	var layers []string
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "perfbench: %d spans; self time by layer:\n", len(t.spans))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %12.3f ms\n", l, float64(self[l])/1e6)
	}
}

// write stores the spans and the per-layer self times as JSON; call
// selfTimes first.
func (t *tracer) write(path string, seed int64) error {
	self := map[string]float64{}
	for l, d := range t.layerSelf() {
		self[l] = float64(d) / 1e6
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	t.mu.Lock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMS   map[string]float64 `json:"self_ms_by_layer"`
		Spans    []span             `json:"spans"`
	}{t.workload, seed, self, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

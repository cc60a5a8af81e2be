package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// now is the benchmark's single host-clock read: every wall-time figure
// it reports is a difference of two values returned here.
func now() time.Time {
	return time.Now() //qcdoclint:walltime-ok the benchmark exists to measure host time; simulated state never sees this value
}

// since returns the host seconds elapsed from t.
func since(t time.Time) float64 { return now().Sub(t).Seconds() }

// span is one timed call from the benchmark into a layer's public
// functions. Times are host seconds from the tracer's origin.
type span struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index into the span list, -1 for an operation's root
	Op     int     `json:"op"`     // spans of one operation share this identifier
}

// tracer keeps spans in memory; they are written once, when the run
// ends. A nil *tracer is the dark pass: every method is a no-op, so
// workloads call it unconditionally. Spans are opened and closed on the
// benchmark's own goroutine only.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	op     int
}

func newTracer() *tracer { return &tracer{origin: now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(layer, name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.op++
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: since(t.origin), Parent: parent, Op: t.op})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() float64 {
	if t == nil {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = since(t.origin)
	return t.spans[i].End - t.spans[i].Start
}

// selfTimes returns each span's duration minus the part of it its
// direct children cover.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if p := s.Parent; p >= 0 {
			lo, hi := max(s.Start, spans[p].Start), min(s.End, spans[p].End)
			if hi > lo {
				self[p] -= hi - lo
			}
		}
	}
	return self
}

// layerSelfSeconds sums self time by layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, s := range selfTimes(spans) {
		out[spans[i].Layer] += s
	}
	return out
}

// traceFile is what bench/out/trace.json holds.
type traceFile struct {
	Provenance  provenance         `json:"provenance"`
	Workloads   []string           `json:"workloads"`
	Spans       []span             `json:"spans"`
	LayerSelfS  map[string]float64 `json:"layer_self_s"`
	LayerOrder  []string           `json:"layer_order"`
	Explanation string             `json:"explanation"`
}

func writeTrace(path string, prov provenance, workloads []string, spans []span) error {
	self := layerSelfSeconds(spans)
	order := sortedKeys(self)
	sort.SliceStable(order, func(i, j int) bool { return self[order[i]] > self[order[j]] })
	return writeJSON(path, traceFile{
		Provenance: prov, Workloads: workloads, Spans: spans, LayerSelfS: self, LayerOrder: order,
		Explanation: "spans are recorded by the benchmark around its calls into each layer; " +
			"layers below core/machine run inside Engine.Run and are reported as count x probe cost (*.est_share)",
	})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

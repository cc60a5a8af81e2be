package telemetry

import (
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Record(0) // bucket 0
	h.Record(1) // bucket 1: [1,2)
	h.Record(2) // bucket 2: [2,4)
	h.Record(3)
	h.Record(1 << 40) // bucket 41
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 0+1+2+3+(1<<40) || s.Max != 1<<40 {
		t.Fatalf("snapshot %+v", s)
	}
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 41: 1}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	// 100 samples 1..100: p50 lands in the [32,64) bucket, p95/p99/max in
	// [64,128). Percentiles are bucket upper bounds clamped to max.
	for v := uint64(1); v <= 100; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.P50 != 63 {
		t.Errorf("p50 = %d, want 63 (upper bound of [32,64))", s.P50)
	}
	if s.P95 != 100 || s.P99 != 100 || s.Max != 100 {
		t.Errorf("p95 %d p99 %d max %d, want all clamped to 100", s.P95, s.P99, s.Max)
	}
	// Single sample: every percentile is that sample's bucket, clamped.
	var one Histogram
	one.Record(7)
	os := one.Snapshot()
	if os.P50 != 7 || os.P99 != 7 || os.Max != 7 {
		t.Errorf("single-sample percentiles %d/%d/%d, want 7", os.P50, os.P99, os.Max)
	}
	// Empty histogram: all zeros.
	var empty Histogram
	es := empty.Snapshot()
	if es.Count != 0 || es.P50 != 0 || es.Max != 0 {
		t.Errorf("empty snapshot %+v", es)
	}
}

func TestHistogramAbsorb(t *testing.T) {
	var a, b, both Histogram
	for v := uint64(1); v <= 50; v++ {
		a.Record(v)
		both.Record(v)
	}
	for v := uint64(51); v <= 100; v++ {
		b.Record(v)
		both.Record(v)
	}
	a.Absorb(&b)
	as, bs := a.Snapshot(), both.Snapshot()
	if as.Count != bs.Count || as.Sum != bs.Sum || as.Max != bs.Max ||
		as.P50 != bs.P50 || as.P95 != bs.P95 || as.P99 != bs.P99 {
		t.Fatalf("absorb %+v != direct %+v", as, bs)
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	var a, b, both Histogram
	for v := uint64(1); v <= 60; v++ {
		a.Record(v * 3)
		both.Record(v * 3)
	}
	for v := uint64(1); v <= 40; v++ {
		b.Record(v * 7)
		both.Record(v * 7)
	}
	as := a.Snapshot().Merge(b.Snapshot())
	bs := both.Snapshot()
	if as.Count != bs.Count || as.Sum != bs.Sum || as.Max != bs.Max || as.P95 != bs.P95 {
		t.Fatalf("merged %+v != direct %+v", as, bs)
	}
	// Merging into an empty snapshot copies.
	empty := HistogramSnapshot{}.Merge(bs)
	if empty.Count != bs.Count || empty.P50 != bs.P50 {
		t.Fatalf("merge into empty %+v", empty)
	}
}

func TestMergeHistogramMaps(t *testing.T) {
	var a, b Histogram
	for v := uint64(1); v <= 10; v++ {
		a.Record(v)
		b.Record(v * 100)
	}
	m1 := map[string]HistogramSnapshot{"x": a.Snapshot(), "only1": a.Snapshot()}
	m2 := map[string]HistogramSnapshot{"x": b.Snapshot(), "only2": b.Snapshot()}
	got := MergeHistogramMaps(nil, m1)
	got = MergeHistogramMaps(got, m2)
	if len(got) != 3 {
		t.Fatalf("merged %d keys", len(got))
	}
	if got["x"].Count != 20 || got["x"].Max != 1000 {
		t.Fatalf("x merged %+v", got["x"])
	}
	if got["only1"].Count != 10 || got["only2"].Count != 10 {
		t.Fatal("singleton keys lost")
	}
	// Empty-count entries don't clobber anything and nil src is a no-op.
	if r := MergeHistogramMaps(got, nil); len(r) != 3 {
		t.Fatal("nil src changed the map")
	}
}

// Record sits on the per-word path of every observed run: it must not
// allocate.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345) }); n != 0 {
		t.Fatalf("Record allocates %.1f per call", n)
	}
}

// TestRegistryClear pins the teardown contract pool reclamation relies
// on: Clear drops every source and disables collection, so a recycled
// engine can never reach a dead machine's emit closures.
func TestRegistryClear(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	r.RegisterCounters("c", func(emit EmitFunc) { emit("x", 1) })
	r.RegisterGauge("g", func() float64 { return 1 })
	r.RegisterHistograms("h", func(emit HistEmitFunc) { emit("y", HistogramSnapshot{}) })
	if s := r.Snapshot(); len(s.Counters) != 1 || len(s.Gauges) != 1 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot before clear %+v", s)
	}
	r.Clear()
	if r.Enabled() {
		t.Fatal("still enabled after clear")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || s.Histograms != nil {
		t.Fatalf("cleared registry snapshot %+v", s)
	}
	// The sources are gone, not merely unread: enabling again finds none.
	r.SetEnabled(true)
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("re-enabled cleared registry snapshot %+v", s)
	}
}

// TestDisabledRegistryHistogramsUntouched extends the disabled-registry
// contract to histograms: a disabled Snapshot must not invoke any
// histogram source.
func TestDisabledRegistryHistogramsUntouched(t *testing.T) {
	r := New()
	touched := false
	r.RegisterHistograms("h", func(emit HistEmitFunc) { touched = true })
	if s := r.Snapshot(); s.Histograms != nil || touched {
		t.Fatal("disabled registry touched a histogram source")
	}
	r.SetEnabled(true)
	if s := r.Snapshot(); !touched || len(s.Histograms) != 0 {
		t.Fatal("enabled registry skipped the histogram source")
	}
}

package telemetry

import (
	"strings"
	"testing"
)

func TestRegistrySnapshot(t *testing.T) {
	r := New()
	words := uint64(0)
	touched := 0
	r.RegisterCounters("node0/scu", func(emit EmitFunc) {
		touched++
		emit("words_sent", words)
	})
	r.RegisterGauge("machine/efficiency", func() float64 { return 0.4 })

	// Disabled: empty snapshot, and crucially the source is never read.
	if r.Enabled() {
		t.Fatal("registry enabled at birth")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || touched != 0 {
		t.Fatalf("disabled snapshot read sources: %+v (touched %d)", s, touched)
	}

	r.SetEnabled(true)
	words = 42
	s = r.Snapshot()
	if touched != 1 || len(s.Counters) != 1 || len(s.Gauges) != 1 {
		t.Fatalf("source read %d times into %d counters, %d gauges", touched, len(s.Counters), len(s.Gauges))
	}
	if got := s.Counters["node0/scu/words_sent"]; got != 42 {
		t.Fatalf("counter = %d, keys %v", got, s.Names())
	}
	if got := s.Gauges["machine/efficiency"]; got != 0.4 {
		t.Fatalf("gauge = %g", got)
	}

	// Snapshots are pull-based: a later snapshot sees the new value with
	// no intervening telemetry call.
	words = 99
	if got := r.Snapshot().Counters["node0/scu/words_sent"]; got != 99 {
		t.Fatalf("second snapshot = %d", got)
	}
}

func TestSnapshotNamesAndFormat(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	r.RegisterCounters("b", func(emit EmitFunc) { emit("x", 2) })
	r.RegisterCounters("a", func(emit EmitFunc) { emit("y", 1) })
	r.RegisterGauge("g", func() float64 { return 1.5 })
	s := r.Snapshot()
	names := s.Names()
	if len(names) != 2 || names[0] != "a/y" || names[1] != "b/x" {
		t.Fatalf("names = %v", names)
	}
	f := s.Format()
	if f != "a/y 1\nb/x 2\ng 1.5\n" {
		t.Fatalf("format:\n%s", f)
	}
	if !strings.HasSuffix(f, "\n") {
		t.Fatal("format must end with newline")
	}
}

package event

import (
	"encoding/json"
	"strings"
	"testing"
)

type traceTestHandler struct{ hits int }

func (h *traceTestHandler) HandleEvent(arg uint64) { h.hits += int(arg) }

func TestRecorderCapturesBothTiers(t *testing.T) {
	e := New()
	rec := NewRecorder(8)
	e.SetRecorder(rec)
	if e.Recorder() != rec {
		t.Fatal("Recorder accessor")
	}
	h := &traceTestHandler{}
	e.After(2*Nanosecond, func() {})
	e.AfterHandler(5*Nanosecond, h, 7)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if rec.Total() != 2 {
		t.Fatalf("recorded %d events", rec.Total())
	}
	tail := rec.Tail(0)
	if len(tail) != 2 {
		t.Fatalf("tail %v", tail)
	}
	if tail[0].At != 2*Nanosecond || tail[0].Kind != TraceFunc || tail[0].Actor() != "func" {
		t.Fatalf("record 0: %v", tail[0])
	}
	if tail[1].At != 5*Nanosecond || tail[1].Kind != TraceHandler || tail[1].Arg != 7 {
		t.Fatalf("record 1: %v", tail[1])
	}
	if !strings.Contains(tail[1].Actor(), "traceTestHandler") {
		t.Fatalf("actor %q", tail[1].Actor())
	}
	// Records arrive in dispatch order: seq strictly increasing.
	if tail[0].Seq >= tail[1].Seq {
		t.Fatalf("seq order: %d then %d", tail[0].Seq, tail[1].Seq)
	}
}

func TestRecorderRingWraps(t *testing.T) {
	e := New()
	rec := NewRecorder(4)
	e.SetRecorder(rec)
	for i := 0; i < 10; i++ {
		e.After(Time(i+1)*Nanosecond, func() {})
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if rec.Total() != 10 || rec.Cap() != 4 {
		t.Fatalf("total %d cap %d", rec.Total(), rec.Cap())
	}
	// Only the last 4 survive, oldest first.
	tail := rec.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("tail %v", tail)
	}
	for i, r := range tail {
		if want := Time(7+i) * Nanosecond; r.At != want {
			t.Fatalf("tail[%d].At = %v, want %v", i, r.At, want)
		}
	}
	// A bounded tail trims from the old end.
	last := rec.Tail(2)
	if len(last) != 2 || last[1].At != 10*Nanosecond {
		t.Fatalf("Tail(2) = %v", last)
	}
}

func TestRecorderDoesNotPerturbDispatch(t *testing.T) {
	// The zero-perturbation contract at the engine level: the same
	// workload with and without a recorder dispatches the same events at
	// the same times. (The machine-level digest test is in
	// internal/machine; this is the unit version.)
	runOnce := func(withRec bool) (uint64, []Time) {
		e := New()
		if withRec {
			e.SetRecorder(NewRecorder(16))
		}
		var at []Time
		e.SetTracer(func(t Time) { at = append(at, t) })
		q := NewQueue[int](e, "q")
		e.SpawnDaemon("rx", func(p *Proc) {
			for {
				q.Get(p)
			}
		})
		e.Spawn("tx", func(p *Proc) {
			p.Sleep(3 * Nanosecond)
			q.Put(1)
			p.Sleep(Nanosecond)
			q.Put(2)
		})
		if err := e.RunAll(); err != nil {
			panic(err)
		}
		e.Shutdown()
		return e.Executed(), at
	}
	n1, t1 := runOnce(false)
	n2, t2 := runOnce(true)
	if n1 != n2 {
		t.Fatalf("event counts differ: %d without, %d with recorder", n1, n2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("dispatch %d at %v without recorder, %v with", i, t1[i], t2[i])
		}
	}
}

func TestRecorderDumpAndChromeTrace(t *testing.T) {
	e := New()
	rec := NewRecorder(8)
	e.SetRecorder(rec)
	h := &traceTestHandler{}
	e.AfterHandler(3*Nanosecond, h, 1)
	e.After(4*Nanosecond, func() {})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	var dump strings.Builder
	rec.Dump(&dump, 0)
	if !strings.Contains(dump.String(), "2 of 2 recorded events") ||
		!strings.Contains(dump.String(), "traceTestHandler") {
		t.Fatalf("dump:\n%s", dump.String())
	}
	var ct strings.Builder
	if err := WriteChromeTraceMerged(&ct, []*Recorder{rec}, 0); err != nil {
		t.Fatal(err)
	}
	// The export must be valid JSON in Chrome trace-event shape.
	var parsed struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Args struct {
				Seq  uint64 `json:"seq"`
				Kind string `json:"kind"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(ct.String()), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, ct.String())
	}
	if len(parsed.TraceEvents) != 2 || parsed.TraceEvents[0].Ph != "i" {
		t.Fatalf("trace events: %+v", parsed.TraceEvents)
	}
	if parsed.TraceEvents[0].Args.Kind != "handler" || parsed.TraceEvents[1].Args.Kind != "func" {
		t.Fatalf("kinds: %+v", parsed.TraceEvents)
	}
	if parsed.TraceEvents[0].Ts != 3e-3 { // 3ns in microseconds
		t.Fatalf("ts = %g", parsed.TraceEvents[0].Ts)
	}
}

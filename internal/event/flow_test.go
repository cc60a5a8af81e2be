package event

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestFlowInheritance pins causal-flow propagation: events scheduled
// while a flow is current carry it, their own descendants inherit it,
// and SetFlow restores cleanly.
func TestFlowInheritance(t *testing.T) {
	e := New()
	rec := NewRecorder(16)
	e.SetRecorder(rec)
	var inChild, inGrandchild, after uint64
	e.After(Nanosecond, func() {
		f := e.NewFlow()
		prev := e.SetFlow(f)
		if e.CurrentFlow() != f {
			t.Errorf("CurrentFlow %#x, want %#x", e.CurrentFlow(), f)
		}
		e.After(Nanosecond, func() {
			inChild = e.CurrentFlow()
			e.After(Nanosecond, func() { inGrandchild = e.CurrentFlow() })
		})
		e.SetFlow(prev)
		e.After(Nanosecond, func() { after = e.CurrentFlow() })
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if inChild == 0 || inChild != inGrandchild {
		t.Fatalf("flow not inherited: child %#x grandchild %#x", inChild, inGrandchild)
	}
	if after != 0 {
		t.Fatalf("flow leaked past SetFlow(prev): %#x", after)
	}
	// The recorder captured the flow on the in-flow events only.
	flows := map[uint64]int{}
	for _, r := range rec.Tail(0) {
		flows[r.Flow]++
	}
	if flows[inChild] != 2 {
		t.Fatalf("recorded flows %v, want 2 records on flow %#x", flows, inChild)
	}
}

// TestNewFlowDeterministic pins the flow-ID scheme: a per-engine counter
// in the low bits under bit 40, so IDs are deterministic and never 0.
func TestNewFlowDeterministic(t *testing.T) {
	e := New()
	f1, f2 := e.NewFlow(), e.NewFlow()
	if f1 != 1<<40|1 || f2 != 1<<40|2 {
		t.Fatalf("flow ids %#x, %#x", f1, f2)
	}
	e2 := New()
	if g := e2.NewFlow(); g != f1 {
		t.Fatalf("fresh engine first flow %#x, want %#x", g, f1)
	}
}

// TestMarkSpanRecordsWithoutConsumingSeq pins the load-bearing property
// of span marks: they attach to the flight recorder without advancing
// the engine's event sequence, so attaching a recorder cannot move any
// event's seq — the zero-perturbation contract at the trace layer.
func TestMarkSpanRecordsWithoutConsumingSeq(t *testing.T) {
	run := func(withSpans bool) (seqs []uint64, spans int) {
		e := New()
		rec := NewRecorder(32)
		e.SetRecorder(rec)
		e.After(Nanosecond, func() {
			if withSpans {
				e.MarkSpanBegin("work")
			}
			e.After(Nanosecond, func() {
				if withSpans {
					e.MarkSpanEnd("work")
				}
			})
		})
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		for _, r := range rec.Tail(0) {
			if r.Kind == TraceSpanBegin || r.Kind == TraceSpanEnd {
				spans++
				if r.Actor() != "work" {
					t.Fatalf("span actor %q", r.Actor())
				}
				continue
			}
			seqs = append(seqs, r.Seq)
		}
		return seqs, spans
	}
	plain, n0 := run(false)
	spanned, n2 := run(true)
	if n0 != 0 || n2 != 2 {
		t.Fatalf("span counts %d/%d, want 0/2", n0, n2)
	}
	if len(plain) != len(spanned) {
		t.Fatalf("event counts differ: %d vs %d", len(plain), len(spanned))
	}
	for i := range plain {
		if plain[i] != spanned[i] {
			t.Fatalf("seq %d moved: %d without spans, %d with", i, plain[i], spanned[i])
		}
	}
	// Spans without a recorder are free no-ops.
	e := New()
	e.MarkSpanBegin("nobody-listening")
	e.MarkSpanEnd("nobody-listening")
}

// TestChromeTraceMergedNamespacesAndStability pins the fleet-export
// fix: recorders from different machines merge into one Chrome trace
// with pids namespaced by machine ID, span begin/end pairs exported as
// async flow events, and the whole document byte-stable across
// identical runs.
func TestChromeTraceMergedNamespacesAndStability(t *testing.T) {
	build := func(machineID int) *Recorder {
		e := New()
		rec := NewRecorder(16)
		rec.SetMachineID(machineID)
		e.SetRecorder(rec)
		e.After(Nanosecond, func() {
			f := e.NewFlow()
			prev := e.SetFlow(f)
			e.MarkSpanBegin("gsum")
			e.After(Nanosecond, func() {
				e.MarkSpanEnd("gsum")
			})
			e.SetFlow(prev)
		})
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	export := func() string {
		var sb strings.Builder
		if err := WriteChromeTraceMerged(&sb, []*Recorder{build(0), build(1), nil}, 0); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	doc := export()
	if doc != export() {
		t.Fatal("two identical merged exports differ byte-for-byte")
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			ID   uint64 `json:"id"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(doc), &parsed); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v\n%s", err, doc)
	}
	pids := map[int]int{}
	begins, ends := 0, 0
	for _, ev := range parsed.TraceEvents {
		pids[ev.Pid]++
		if ev.Name == "gsum" {
			switch ev.Ph {
			case "b":
				begins++
			case "e":
				ends++
			}
			if ev.Cat != "flow" || ev.ID == 0 {
				t.Fatalf("span event %+v", ev)
			}
		}
	}
	if len(pids) != 2 || pids[0] == 0 || pids[1] == 0 {
		t.Fatalf("pids %v, want events under pid 0 and pid 1", pids)
	}
	if begins != 2 || ends != 2 {
		t.Fatalf("span pairs: %d begins, %d ends", begins, ends)
	}
}

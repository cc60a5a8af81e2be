package event

// This file is the flight recorder: a fixed-size ring of trace records
// captured in the engine's dispatch loop, for reconstructing "what was
// the machine doing" after a hang, a panic, or a surprising result.
//
// Recording obeys the telemetry zero-perturbation contract (DESIGN.md
// §10): the recorder schedules nothing and allocates nothing per event —
// each dispatch overwrites one preallocated ring slot — so the simulated
// event stream is bit-identical with the recorder attached or not. The
// expensive parts (naming actors, JSON export) happen only at dump time.
// The ring holds records in dispatch order, so the exported trace is a
// deterministic function of the simulation. A recorder watches one
// unsharded engine: SetRecorder panics on a shard of a cluster.

import (
	"fmt"
	"io"
	"sort"
)

// TraceKind classifies a dispatched event.
type TraceKind uint8

const (
	// TraceFunc is a closure event (At/After).
	TraceFunc TraceKind = iota
	// TraceHandler is a pre-bound Handler event (the continuation tier's
	// hot paths: wires, link pumps, timers; a process's wake).
	TraceHandler
	// TraceSpanBegin / TraceSpanEnd are span marks dropped by
	// instrumented code (Engine.MarkSpanBegin/End): not events at all,
	// but annotations sharing the enclosing event's time and sequence
	// number, tagged with a causal flow ID so a whole collective or
	// recovery sequence exports as one Chrome-trace flow.
	TraceSpanBegin
	TraceSpanEnd
)

func (k TraceKind) String() string {
	if k > TraceSpanEnd {
		return "func"
	}
	return [...]string{"func", "handler", "span-begin", "span-end"}[k]
}

// TraceRecord is one dispatched event: its time, stable sequence
// number, kind, causal flow ID, and — for handler events — the target
// and argument.
type TraceRecord struct {
	At   Time
	Seq  uint64
	Kind TraceKind
	Arg  uint64
	Flow uint64
	h    Handler
	name string // span label (static string; set only by markSpan)
}

// Actor names the event target: the span label for span marks, the
// dynamic type of the handler, or "func" for closure events (closures
// have no useful identity). The type formatting runs only here, never
// on the record path.
func (r TraceRecord) Actor() string {
	switch {
	case r.Kind == TraceSpanBegin || r.Kind == TraceSpanEnd:
		return r.name
	case r.Kind == TraceHandler && r.h != nil:
		return fmt.Sprintf("%T", r.h)
	}
	return "func"
}

func (r TraceRecord) String() string {
	switch r.Kind {
	case TraceHandler:
		return fmt.Sprintf("%v seq=%d %s arg=%d", r.At, r.Seq, r.Actor(), r.Arg)
	case TraceSpanBegin, TraceSpanEnd:
		return fmt.Sprintf("%v seq=%d %s %s flow=%#x", r.At, r.Seq, r.Kind, r.name, r.Flow)
	}
	return fmt.Sprintf("%v seq=%d func", r.At, r.Seq)
}

// DefaultRecorderSize is the ring capacity when none is given.
const DefaultRecorderSize = 4096

// Recorder is the flight recorder. Attach it to an engine with
// SetRecorder; its ring keeps the engine's most recent Cap() dispatched
// events.
type Recorder struct {
	machine int // Chrome-trace pid namespace; see SetMachineID
	ring    []TraceRecord
	total   uint64 // events recorded since creation
}

// NewRecorder creates a recorder whose ring holds the last size events
// (size <= 0 selects DefaultRecorderSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	return &Recorder{ring: make([]TraceRecord, size)}
}

// SetMachineID sets the identity this recorder's events export under:
// the Chrome-trace pid. Fleet runs give each machine's recorder its own
// ID so merged multi-machine traces don't collide on pid 0.
func (r *Recorder) SetMachineID(id int) { r.machine = id }

// record stores one dispatch into the ring. Called from the dispatch
// loop with the item by value so nothing escapes to the heap.
func (r *Recorder) record(at Time, seq, flow uint64, h Handler, arg uint64) {
	slot := &r.ring[r.total%uint64(len(r.ring))]
	slot.At = at
	slot.Seq = seq
	slot.Arg = arg
	slot.Flow = flow
	slot.name = ""
	if _, closure := h.(funcHandler); closure {
		slot.Kind = TraceFunc
		slot.h = nil
	} else {
		slot.Kind = TraceHandler
		slot.h = h
	}
	r.total++
}

// markSpan stores one span annotation into the ring, reusing the
// enclosing event's time and sequence number.
func (r *Recorder) markSpan(at Time, seq, flow uint64, name string, kind TraceKind) {
	slot := &r.ring[r.total%uint64(len(r.ring))]
	slot.At = at
	slot.Seq = seq
	slot.Arg = 0
	slot.Flow = flow
	slot.Kind = kind
	slot.h = nil
	slot.name = name
	r.total++
}

// Total reports how many events have been recorded since creation
// (including ones the ring has since overwritten).
func (r *Recorder) Total() uint64 { return r.total }

// Cap reports the ring capacity.
func (r *Recorder) Cap() int { return len(r.ring) }

// Tail returns up to n of the most recent records (0 = everything still
// in the ring), oldest first — dispatch order. It copies (a cold-path
// call on a quiesced engine); the ring keeps recording.
func (r *Recorder) Tail(n int) []TraceRecord {
	have := min(r.total, uint64(len(r.ring)))
	if n > 0 && uint64(n) < have {
		have = uint64(n)
	}
	out := make([]TraceRecord, have)
	for i := range out {
		out[i] = r.ring[(r.total-have+uint64(i))%uint64(len(r.ring))]
	}
	return out
}

// Dump writes up to n of the most recent records to w, oldest first —
// the on-demand (or deferred-on-panic) human-readable dump.
func (r *Recorder) Dump(w io.Writer, n int) {
	tail := r.Tail(n)
	fmt.Fprintf(w, "flight recorder: %d of %d recorded events\n", len(tail), r.Total())
	for _, rec := range tail {
		fmt.Fprintf(w, "  %s\n", rec)
	}
}

// WriteChromeTraceMerged exports up to n of the most recent records (0 =
// all of them) of several machines' recorders (e.g. one per fleet run, or
// a single machine's) as one Chrome trace-event JSON document loadable in
// chrome://tracing or Perfetto: dispatched events as "instant" events,
// span marks as async "b"/"e" pairs keyed by their causal flow ID (so one
// global sum or recovery sequence renders as a single flow). Each
// recorder's machine ID is the pid; the tid is 0. Nil recorders are
// skipped. The merge key is (At, pid, Seq) with ring order below that, so
// the export is byte-stable across runs.
func WriteChromeTraceMerged(w io.Writer, recs []*Recorder, n int) error {
	return writeChromeJSON(w, mergedTail(recs, n))
}

// machRec pairs a trace record with its machine (pid) namespace.
type machRec struct {
	pid int
	rec TraceRecord
}

// mergedTail flattens and deterministically orders the recorders' rings.
// Each ring is already in (At, Seq) order, so the sort only interleaves
// machines.
func mergedTail(recs []*Recorder, n int) []machRec {
	var out []machRec
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, tr := range r.Tail(0) {
			out = append(out, machRec{pid: r.machine, rec: tr})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.rec.At != b.rec.At {
			return a.rec.At < b.rec.At
		}
		if a.pid != b.pid {
			return a.pid < b.pid
		}
		return a.rec.Seq < b.rec.Seq
	})
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

func writeChromeJSON(w io.Writer, tail []machRec) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, mr := range tail {
		sep := ","
		if i == len(tail)-1 {
			sep = ""
		}
		rec := mr.rec
		ts := float64(rec.At) / 1e6
		var err error
		switch rec.Kind {
		case TraceSpanBegin, TraceSpanEnd:
			ph := "b"
			if rec.Kind == TraceSpanEnd {
				ph = "e"
			}
			_, err = fmt.Fprintf(w,
				"{\"name\":%q,\"cat\":\"flow\",\"ph\":%q,\"id\":%d,\"pid\":%d,\"tid\":0,\"ts\":%.6f,\"args\":{\"seq\":%d}}%s\n",
				rec.Actor(), ph, rec.Flow, mr.pid, ts, rec.Seq, sep)
		default:
			_, err = fmt.Fprintf(w,
				"{\"name\":%q,\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,\"tid\":0,\"ts\":%.6f,\"args\":{\"seq\":%d,\"kind\":%q,\"arg\":%d,\"flow\":%d}}%s\n",
				rec.Actor(), mr.pid, ts, rec.Seq, rec.Kind.String(), rec.Arg, rec.Flow, sep)
		}
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// MarkSpanBegin drops a span-begin annotation into the flight recorder
// at the current time under the current flow. A no-op without a
// recorder; never an event, never an allocation (name must be a static
// string), so instrumented code behaves identically with or without a
// recorder attached.
func (e *Engine) MarkSpanBegin(name string) {
	if e.rec != nil {
		e.rec.markSpan(e.now, e.lastSeq, e.curFlow, name, TraceSpanBegin)
	}
}

// MarkSpanEnd drops the matching span-end annotation; see MarkSpanBegin.
func (e *Engine) MarkSpanEnd(name string) {
	if e.rec != nil {
		e.rec.markSpan(e.now, e.lastSeq, e.curFlow, name, TraceSpanEnd)
	}
}

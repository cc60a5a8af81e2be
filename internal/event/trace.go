package event

// This file is the flight recorder: fixed-size rings of trace records
// captured in the engines' dispatch loops, for reconstructing "what was
// the machine doing" after a hang, a panic, or a surprising result.
//
// Recording obeys the telemetry zero-perturbation contract (DESIGN.md
// §10): the recorder schedules nothing and allocates nothing per event —
// each dispatch overwrites one preallocated ring slot — so the simulated
// event stream is bit-identical with the recorder attached or not. The
// expensive parts (naming actors, JSON export) happen only at dump time.
//
// With a sharded cluster the recorder holds one ring per shard, each
// written only by its own shard's dispatch loop (no cross-shard writes,
// no locks). Tail, Dump and WriteChromeTrace merge the rings by
// simulated time with a stable (At, Shard, Seq) tie-break, so the
// exported trace is a deterministic function of the simulation — byte
// identical at any worker count.

import (
	"fmt"
	"io"
	"sort"
)

// TraceKind classifies a dispatched event.
type TraceKind uint8

const (
	// TraceFunc is a closure event (At/After and the coroutine tier's
	// activation/wake events).
	TraceFunc TraceKind = iota
	// TraceHandler is a pre-bound Handler event (the continuation tier's
	// hot paths: wires, link pumps, timers).
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
	switch k {
	case TraceHandler:
		return "handler"
	case TraceSpanBegin:
		return "span-begin"
	case TraceSpanEnd:
		return "span-end"
	}
	return "func"
}

// TraceRecord is one dispatched event: its time, shard, stable per-shard
// sequence number, kind, causal flow ID, and — for handler events — the
// target and argument.
type TraceRecord struct {
	At    Time
	Seq   uint64
	Shard int
	Kind  TraceKind
	Arg   uint64
	Flow  uint64
	h     Handler
	name  string // span label (static string; set only by markSpan)
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
		return fmt.Sprintf("%v shard=%d seq=%d %s arg=%d", r.At, r.Shard, r.Seq, r.Actor(), r.Arg)
	case TraceSpanBegin, TraceSpanEnd:
		return fmt.Sprintf("%v shard=%d seq=%d %s %s flow=%#x", r.At, r.Shard, r.Seq, r.Kind, r.name, r.Flow)
	}
	return fmt.Sprintf("%v shard=%d seq=%d func", r.At, r.Shard, r.Seq)
}

// DefaultRecorderSize is the per-shard ring capacity when none is given.
const DefaultRecorderSize = 4096

// shardRing is one shard's ring. Only that shard's dispatch loop writes
// it; merging happens at dump time on quiesced engines.
type shardRing struct {
	shard int
	ring  []TraceRecord
	total uint64 // events recorded since creation
}

// record stores one dispatch into the ring. Called from the dispatch
// loop with the item by value so nothing escapes to the heap.
func (sr *shardRing) record(at Time, seq, flow uint64, fn func(), h Handler, arg uint64) {
	slot := &sr.ring[sr.total%uint64(len(sr.ring))]
	slot.At = at
	slot.Seq = seq
	slot.Shard = sr.shard
	slot.Arg = arg
	slot.Flow = flow
	slot.name = ""
	if fn != nil {
		slot.Kind = TraceFunc
		slot.h = nil
	} else {
		slot.Kind = TraceHandler
		slot.h = h
	}
	sr.total++
}

// markSpan stores one span annotation into the ring, reusing the
// enclosing event's time and sequence number.
func (sr *shardRing) markSpan(at Time, seq, flow uint64, name string, kind TraceKind) {
	slot := &sr.ring[sr.total%uint64(len(sr.ring))]
	slot.At = at
	slot.Seq = seq
	slot.Shard = sr.shard
	slot.Arg = 0
	slot.Flow = flow
	slot.Kind = kind
	slot.h = nil
	slot.name = name
	sr.total++
}

// tail returns up to n of this ring's most recent records, oldest first.
func (sr *shardRing) tail(n int) []TraceRecord {
	have := sr.total
	if have > uint64(len(sr.ring)) {
		have = uint64(len(sr.ring))
	}
	if n > 0 && uint64(n) < have {
		have = uint64(n)
	}
	out := make([]TraceRecord, have)
	for i := uint64(0); i < have; i++ {
		out[i] = sr.ring[(sr.total-have+i)%uint64(len(sr.ring))]
	}
	return out
}

// Recorder is the flight recorder. Attach it to an engine with
// SetRecorder; each shard that records through it gets its own ring
// keeping that shard's most recent Cap() dispatched events.
type Recorder struct {
	cap     int
	machine int // Chrome-trace pid namespace; see SetMachineID
	rings   []*shardRing
}

// NewRecorder creates a recorder whose rings hold the last size events
// per shard (size <= 0 selects DefaultRecorderSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	return &Recorder{cap: size}
}

// SetMachineID sets the identity this recorder's events export under:
// the Chrome-trace pid. Fleet runs give each machine's recorder its own
// ID so merged multi-machine traces don't collide on pid 0.
func (r *Recorder) SetMachineID(id int) { r.machine = id }

// ringFor returns (creating on first use) the ring for a shard index.
func (r *Recorder) ringFor(shard int) *shardRing {
	for _, sr := range r.rings {
		if sr.shard == shard {
			return sr
		}
	}
	sr := &shardRing{shard: shard, ring: make([]TraceRecord, r.cap)}
	r.rings = append(r.rings, sr)
	sort.Slice(r.rings, func(i, j int) bool { return r.rings[i].shard < r.rings[j].shard })
	return sr
}

// Total reports how many events have been recorded since creation across
// all shards (including ones the rings have since overwritten).
func (r *Recorder) Total() uint64 {
	var t uint64
	for _, sr := range r.rings {
		t += sr.total
	}
	return t
}

// Cap reports the per-shard ring capacity.
func (r *Recorder) Cap() int { return r.cap }

// Tail returns up to n of the most recent records (0 = everything still
// in the rings), merged across shards in (At, Shard, Seq) order. It
// copies (a cold-path call on quiesced engines); the rings keep
// recording.
func (r *Recorder) Tail(n int) []TraceRecord {
	var out []TraceRecord
	for _, sr := range r.rings {
		out = append(out, sr.tail(0)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Dump writes up to n of the most recent records to w, oldest first —
// the on-demand (or deferred-on-panic) human-readable dump. Records
// from all shards interleave in simulated-time order.
func (r *Recorder) Dump(w io.Writer, n int) {
	tail := r.Tail(n)
	fmt.Fprintf(w, "flight recorder: %d of %d recorded events\n", len(tail), r.Total())
	for _, rec := range tail {
		fmt.Fprintf(w, "  %s\n", rec)
	}
}

// WriteChromeTrace exports up to n of the most recent records (0 = the
// whole ring set) as Chrome trace-event JSON loadable in chrome://tracing
// or Perfetto: dispatched events as "instant" events, span marks as
// async "b"/"e" pairs keyed by their causal flow ID (so one global sum
// or recovery sequence renders as a single flow across shards). The
// recorder's machine ID is the pid, each shard its own tid. Record
// order is the deterministic (At, pid, Shard, Seq) merge with ring
// insertion order breaking remaining ties — itself the shard's
// deterministic execution order — so the export is byte-identical for a
// given simulation at any worker count.
func (r *Recorder) WriteChromeTrace(w io.Writer, n int) error {
	return writeChromeJSON(w, mergedTail([]*Recorder{r}, n))
}

// WriteChromeTraceMerged exports several machines' recorders (e.g. one
// per fleet run) into a single Chrome trace, pids namespaced by each
// recorder's machine ID. Nil recorders are skipped. The merge key is
// (At, pid, Shard, Seq) with stable insertion order below that, so the
// combined export is byte-stable across runs.
func WriteChromeTraceMerged(w io.Writer, recs []*Recorder, n int) error {
	return writeChromeJSON(w, mergedTail(recs, n))
}

// machRec pairs a trace record with its machine (pid) namespace.
type machRec struct {
	pid int
	rec TraceRecord
}

// mergedTail flattens and deterministically orders the recorders' rings.
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
		if a.rec.Shard != b.rec.Shard {
			return a.rec.Shard < b.rec.Shard
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
				"{\"name\":%q,\"cat\":\"flow\",\"ph\":%q,\"id\":%d,\"pid\":%d,\"tid\":%d,\"ts\":%.6f,\"args\":{\"seq\":%d}}%s\n",
				rec.Actor(), ph, rec.Flow, mr.pid, rec.Shard, ts, rec.Seq, sep)
		default:
			_, err = fmt.Fprintf(w,
				"{\"name\":%q,\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,\"tid\":%d,\"ts\":%.6f,\"args\":{\"seq\":%d,\"kind\":%q,\"arg\":%d,\"flow\":%d}}%s\n",
				rec.Actor(), mr.pid, rec.Shard, ts, rec.Seq, rec.Kind.String(), rec.Arg, rec.Flow, sep)
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
	if e.ring != nil {
		e.ring.markSpan(e.now, e.lastSeq, e.curFlow, name, TraceSpanBegin)
	}
}

// MarkSpanEnd drops the matching span-end annotation; see MarkSpanBegin.
func (e *Engine) MarkSpanEnd(name string) {
	if e.ring != nil {
		e.ring.markSpan(e.now, e.lastSeq, e.curFlow, name, TraceSpanEnd)
	}
}

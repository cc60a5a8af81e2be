// Package cross exercises crossalias's escape classes — direct
// pointer, struct field, slice capture, slice element, closure
// capture, constructor-laundered — and the clean idioms that must stay
// quiet: deep-value copies, engine captures, receiver-only hand-back,
// and a fresh clone per crossing.
package cross

import (
	"unsafe"

	"event"
)

type counters struct{ n int }

type buffers struct{ data []byte }

func use(b []byte) {}

// ---- escape class: direct pointer ----
// The window barrier orders the two shards' accesses to st, so -race
// passes over this shape (ethjtag.Port.Send's packet counter).

func directPointer(eng, dst *event.Engine, st *counters) {
	eng.CrossAt(dst, 1, func() { st.n++ }) // want `captures st \(\*cross\.counters\), a pointer into this shard's heap`
}

// ---- escape class: struct with reference field ----

func structField(eng, dst *event.Engine, shared []byte) {
	b := buffers{data: shared}
	eng.CrossAt(dst, 1, func() { _ = b.data[0] }) // want `captures b, whose type cross\.buffers contains reference fields`
}

// ---- escape class: slice capture / slice element ----

func sliceCapture(eng, dst *event.Engine, buf []byte) {
	eng.CrossAt(dst, 1, func() { buf[0] = 1 }) // want `captures slice buf, aliasing this shard's backing store`
}

func sliceElement(eng, dst *event.Engine, ring []counters) {
	p := &ring[0]
	eng.CrossAt(dst, 1, func() { p.n++ }) // want `captures p \(\*cross\.counters\), a pointer into this shard's heap`
}

// ---- escape class: closure / map capture ----

func closureCapture(eng, dst *event.Engine, done func()) {
	eng.CrossAt(dst, 1, func() { done() }) // want `captures done \(func\(\)\); reference values cannot cross shards`
}

func mapCapture(c *event.Cluster, counts map[string]int) {
	c.AtGlobal(1, func() { counts["tick"]++ }) // want `captures counts \(map\[string\]int\); reference values cannot cross shards`
}

// ---- escape class: constructor-laundered ----

type holder struct{ st *counters }

func newHolder(st *counters) *holder { return &holder{st: st} }

func (h *holder) Emit() {}

// constructorLaundered looks clean under the receiver-only rule — the
// closure only calls h.Emit() — but h was built around &local, so the
// crossing still aliases this shard's stack frame.
func constructorLaundered(eng, dst *event.Engine) {
	var local counters
	h := newHolder(&local)
	eng.CrossAt(dst, 1, func() { h.Emit() }) // want `captures h, built by newHolder \(which retains &local\)`
}

// ---- payload words ----

func payloadSmuggle(eng, dst *event.Engine, h event.PayloadHandler, st *counters) {
	w := uint64(uintptr(unsafe.Pointer(st)))
	eng.CrossPayload(dst, 1, h, w, event.Payload{}) // want `payload word derives from a pointer \(w\)`
}

func addrOf(st *counters) uintptr { return uintptr(unsafe.Pointer(st)) }

func payloadViaHelper(eng, dst *event.Engine, h event.PayloadHandler, st *counters) {
	eng.CrossPayload(dst, 1, h, uint64(addrOf(st)), event.Payload{}) // want `payload word derives from a pointer \(addrOf`
}

// ---- clean idioms: none of these may report ----

// deepValue crosses copies only: a reference-free struct and a scalar.
func deepValue(eng, dst *event.Engine, c counters) {
	word := uint64(42)
	eng.CrossAt(dst, 1, func() { _ = c.n + int(word) })
}

// handBack delivers work to the pointee's owning shard: the closure
// only invokes methods on the captured pointer.
type ownerState struct{ ticks int }

func (o *ownerState) Tick() {}

func handBack(eng, owner *event.Engine, o *ownerState) {
	eng.CrossAt(owner, 1, func() { o.Tick() })
}

// freshClone clones per crossing; the destination owns the copy.
func freshClone(eng, dst *event.Engine, src []byte) {
	cp := append([]byte(nil), src...)
	eng.CrossAt(dst, 1, func() { use(cp) })
}

// cloneInLoop makes a fresh clone per iteration: still clean.
func cloneInLoop(c *event.Cluster, eng *event.Engine, src []byte) {
	for i := 0; i < 4; i++ {
		cp := append([]byte(nil), src...)
		eng.CrossAt(c.Shard(i), 1, func() { use(cp) })
	}
}

// sharedCloneLoop hoists one clone out of the fan-out loop: every
// destination shard aliases the same backing array.
func sharedCloneLoop(c *event.Cluster, eng *event.Engine, src []byte) {
	cp := append([]byte(nil), src...)
	for i := 0; i < 4; i++ {
		eng.CrossAt(c.Shard(i), 1, func() { use(cp) }) // want `one clone is shared by every crossing in this loop`
	}
}

// structCloneField re-points the struct copy's only reference field at
// a fresh clone before crossing: the copy aliases nothing.
func structCloneField(eng, dst *event.Engine, b buffers) {
	cp := b
	cp.data = append([]byte(nil), b.data...)
	eng.CrossAt(dst, 1, func() { _ = cp.data[0] })
}

// structFreshLit builds the struct from a composite literal whose
// reference field is freshly allocated: clean.
func structFreshLit(eng, dst *event.Engine) {
	b := buffers{data: make([]byte, 4)}
	eng.CrossAt(dst, 1, func() { _ = b.data[0] })
}

// structCloneInLoop clones the struct's backing per iteration: clean.
func structCloneInLoop(c *event.Cluster, eng *event.Engine, b buffers) {
	for i := 0; i < 4; i++ {
		cp := b
		cp.data = append([]byte(nil), b.data...)
		eng.CrossAt(c.Shard(i), 1, func() { use(cp.data) })
	}
}

// structSharedCloneLoop hoists the cloned struct out of the fan-out
// loop: every destination aliases the one clone's backing array.
func structSharedCloneLoop(c *event.Cluster, eng *event.Engine, b buffers) {
	cp := b
	cp.data = append([]byte(nil), b.data...)
	for i := 0; i < 4; i++ {
		eng.CrossAt(c.Shard(i), 1, func() { use(cp.data) }) // want `one clone is shared by every crossing in this loop`
	}
}

// payloadClean sends a by-value word block: nothing to flag.
func payloadClean(eng, dst *event.Engine, h event.PayloadHandler) {
	eng.CrossPayload(dst, 1, h, 7, event.Payload{1, 2, 3, 4})
}

// namedClosure is analyzed through the local literal binding.
func namedClosure(eng, dst *event.Engine, st *counters) {
	fn := func() { st.n++ }
	eng.CrossAt(dst, 1, fn) // want `captures st \(\*cross\.counters\), a pointer into this shard's heap`
}

// ---- waiver: justified crossing accrues a hit and stays quiet ----

func waived(eng, dst *event.Engine, st *counters) {
	//qcdoclint:crossalias-ok dst owns st after this handoff; the source shard never touches it again
	eng.CrossAt(dst, 1, func() { st.n++ })
}

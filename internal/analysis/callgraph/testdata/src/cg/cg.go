// Fixture for the callgraph summaries: pointer laundering, direct and
// through a helper, parameter retention, and the mutual-recursion pair
// that pins fixpoint termination.
package cg

import (
	"unsafe"

	"event"
)

// --- LaundersPointer: direct seed and one-hop laundering ---

func laundersDirect(p *int) uintptr {
	return uintptr(unsafe.Pointer(p))
}

func laundersViaHelper(p *int) uintptr {
	return laundersDirect(p)
}

// --- parameter flow ---

type holder struct{ p *int }

// retainsByField stores its argument into the receiver.
func (h *holder) retainsByField(p *int) {
	h.p = p
}

// newHolder launders its argument through a returned composite.
func newHolder(p *int) *holder {
	return &holder{p: p}
}

// retainsViaCallee forwards its argument to a retaining callee.
func retainsViaCallee(h *holder, p *int) {
	h.retainsByField(p)
}

// cleanHelper has no effects at all.
func cleanHelper(x int) int { return x + 1 }

// --- mutual recursion: the fixpoint must terminate and both ends must
// inherit the laundering bit ---

func mutualA(p *int, n int) uintptr {
	if n == 0 {
		return uintptr(unsafe.Pointer(p))
	}
	return mutualB(p, n-1)
}

func mutualB(p *int, n int) uintptr {
	if n == 0 {
		return 0
	}
	return mutualA(p, n-1)
}

// storedLit retains its parameter by capturing it in a closure that is
// handed away rather than invoked.
func storedLit(eng *event.Engine, p *int) {
	eng.At(0, func() { _ = *p })
}

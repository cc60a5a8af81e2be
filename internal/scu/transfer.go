package scu

import (
	"fmt"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
)

// DMADesc describes a block-strided DMA access pattern in local memory
// (§2.2: "the SCUs have DMA engines allowing block strided access to
// local memory"). The pattern is NumBlocks blocks of BlockWords
// contiguous 64-bit words each, with consecutive block starts
// StrideWords apart. This is exactly the shape of a lattice face: e.g.
// the x-boundary spinors of a 4^4 local volume are small blocks strided
// through the field array.
type DMADesc struct {
	Base        uint64 // byte address of the first word (8-byte aligned)
	BlockWords  int    // contiguous words per block
	NumBlocks   int    // number of blocks
	StrideWords int    // words between successive block starts
}

// Contiguous returns a descriptor for n consecutive words at base.
func Contiguous(base uint64, n int) DMADesc {
	return DMADesc{Base: base, BlockWords: n, NumBlocks: 1, StrideWords: n}
}

// TotalWords is the number of words the descriptor covers.
func (d DMADesc) TotalWords() int { return d.BlockWords * d.NumBlocks }

// Addr returns the byte address of the i-th word in pattern order. A
// one-block descriptor (every halo face, Contiguous) needs no division.
func (d DMADesc) Addr(i int) uint64 {
	if d.NumBlocks == 1 {
		return d.Base + 8*uint64(i)
	}
	block, off := i/d.BlockWords, i%d.BlockWords
	return d.Base + 8*uint64(block*d.StrideWords+off)
}

func (d DMADesc) validate() error {
	if d.BlockWords <= 0 || d.NumBlocks <= 0 {
		return fmt.Errorf("%w: %+v", ErrBadDescriptor, d)
	}
	if d.NumBlocks > 1 && d.StrideWords < d.BlockWords {
		return fmt.Errorf("%w: overlapping blocks in %+v", ErrBadDescriptor, d)
	}
	if d.Base%8 != 0 {
		return fmt.Errorf("%w: unaligned base in %+v", ErrBadDescriptor, d)
	}
	return nil
}

// Transfer is one in-flight DMA transfer (send or receive) on a link:
// one object per programmed transfer, holding its completion gate by
// value and serving as its own completion event (HandleEvent).
type Transfer struct {
	Link geom.Link
	Desc DMADesc
	Send bool

	total     int
	wordsDone int
	completed bool
	done      event.Gate
	finished  event.Time
}

func newTransfer(eng *event.Engine, l geom.Link, d DMADesc, send bool) *Transfer {
	// NewGate inlines, so the copy costs no second object.
	return &Transfer{Link: l, Desc: d, Send: send, total: d.TotalWords(), done: *event.NewGate(eng)}
}

// dmaWait is the wait reason of a transfer on link l, "dma " +
// l.String(), from a table of constants in LinkIndex order: a parked
// rank's stall report names its link, and waiting formats nothing.
func dmaWait(l geom.Link) string {
	return [geom.NumLinks]string{
		"dma +0", "dma +1", "dma +2", "dma +3", "dma +4", "dma +5",
		"dma -0", "dma -1", "dma -2", "dma -3", "dma -4", "dma -5",
	}[geom.LinkIndex(l)]
}

// Done reports whether the transfer has completed: all words
// acknowledged (send) or stored in local memory (receive).
func (t *Transfer) Done() bool { return t.completed }

// Wait blocks the process until the transfer completes.
func (t *Transfer) Wait(p *event.Proc) {
	for !t.completed {
		t.done.Wait(p, dmaWait(t.Link))
	}
}

// Finished returns the completion time (valid once Done).
func (t *Transfer) Finished() event.Time { return t.finished }

// progress records one completed word; at the last word the transfer
// completes at time at (never in the past), carried as the event argument.
func (t *Transfer) progress(eng *event.Engine, at event.Time) {
	t.wordsDone++
	if t.wordsDone == t.total {
		eng.AtHandler(at, t, uint64(at))
	}
}

// HandleEvent is the completion event: it marks the transfer done at the
// time progress scheduled it for and wakes the waiters.
func (t *Transfer) HandleEvent(at uint64) {
	t.completed = true
	t.finished = event.Time(at)
	t.done.Fire()
}

// Package team forks a lattice site loop over the host's cores and joins
// it: the one place the simulator's arithmetic uses more than the
// goroutine whose turn it is. A rank program owns a Team; while the rank
// holds its turn (the engine is parked) it hands contiguous chunks of a
// kernel's index range to parked helper goroutines, runs the first chunk
// itself and waits for the rest. Every chunk executes the same kernel on
// disjoint sites, so the result is the serial loop's bit for bit at any
// width; no simulated event is added, removed or re-ordered.
package team

import "runtime"

// Grain is the fewest sites a chunk must hold to be worth a hand-off: a
// loop forks into min(GOMAXPROCS, n/Grain) chunks and is a plain call
// below two. Chosen by measurement, with 128 and 4096 rejected
// (DESIGN.md §8, "Host threads").
const Grain = 1024

// Kernel is a site loop over a half-open index range. A kernel is a
// pointer to a struct that carries the call's arguments and outlives the
// call (a field of the operator that runs it), so handing it to a helper
// allocates nothing. Range must touch only state that is private to the
// sites in [lo, hi) or read-only for the whole Run.
type Kernel interface {
	Range(lo, hi int)
}

// span is one chunk of one Run, handed to a helper by value.
type span struct {
	k      Kernel
	lo, hi int
}

// Team is GOMAXPROCS-1 helper goroutines parked on their work channels.
// The zero value is ready: the first Run that forks starts the helpers,
// Close stops them. A nil *Team runs every kernel as a plain call. A
// Team is used by one goroutine at a time.
type Team struct {
	work []chan span   // one per helper
	done chan struct{} // one token per finished chunk, and per exited helper
}

// Run executes k over [0, n) and returns when every site is done.
func (t *Team) Run(n int, k Kernel) {
	width := 1
	if t != nil && n >= 2*Grain {
		procs := runtime.GOMAXPROCS(0)
		if procs > 1 && t.work == nil {
			t.start(procs - 1)
		}
		width = min(procs, n/Grain, len(t.work)+1)
	}
	if width == 1 {
		k.Range(0, n)
		return
	}
	for i := 1; i < width; i++ {
		t.work[i-1] <- span{k, i * n / width, (i + 1) * n / width}
	}
	// A woken helper waits in this core's run-next slot until an idle core
	// steals it — a median 80 µs here, the whole chunk one time in ten.
	// Yielding runs it now and resumes the caller on a free core (11 µs).
	runtime.Gosched()
	k.Range(0, n/width)
	for i := 1; i < width; i++ {
		<-t.done
	}
}

func (t *Team) start(helpers int) {
	t.work = make([]chan span, helpers)
	// Buffered to the helper count so a helper never waits for the
	// joining side to reach its receive.
	t.done = make(chan struct{}, helpers)
	for i := range t.work {
		t.work[i] = make(chan span)
		go t.help(t.work[i])
	}
}

func (t *Team) help(work <-chan span) {
	for s := range work {
		s.k.Range(s.lo, s.hi)
		t.done <- struct{}{}
	}
	t.done <- struct{}{}
}

// Close stops the helpers and returns once each has left its loop. A rank
// program defers it, so a killed or shut-down rank releases its team on
// the way out. The team may be used again afterwards.
func (t *Team) Close() {
	if t == nil {
		return
	}
	for _, w := range t.work {
		close(w)
	}
	for range t.work {
		<-t.done
	}
	t.work, t.done = nil, nil
}

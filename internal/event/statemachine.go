package event

import (
	"fmt"
	"sort"
)

// This file is the second tier of the two-tier scheduler. The engine
// offers two ways to write a simulation process:
//
//   - Tier 1 — coroutines (Spawn/Proc): a goroutine with a single token
//     of control, suspended at blocking calls. Natural for complex
//     control flow (boot protocols, applications, tests), but each
//     suspension costs a goroutine park and two channel handoffs on the
//     host, and each live process pins a goroutine stack.
//
//   - Tier 2 — continuations (At/After callbacks + StateMachine): a flat
//     state machine advanced entirely by engine callbacks. No goroutine,
//     no channels; a step costs one function call. This is the tier for
//     the hot per-link and per-node hardware services that exist in the
//     tens of thousands on a big machine.
//
// Both tiers share the same event queue, so ordering between them is
// exactly the deterministic (time, scheduling-sequence) order of the
// queue, and simulated-time results do not depend on which tier a
// process runs on.
//
// StateMachine itself is deliberately small: a name and a state label,
// the callback-tier analogue of a Proc's name and blocked-reason, for
// stall diagnostics. A timer that must be cancelled when the machine
// moves on is a Timer (timer.go).

// StateMachine is a named, flat simulation process on the continuation
// tier. Drive it by mutating your own state and calling Goto to label
// transitions.
type StateMachine struct {
	eng   *Engine
	name  fmt.Stringer
	state string
	since Time // when the current state was entered
}

// Name is a state-machine name known up front. A service that exists in
// the thousands passes itself as the Stringer instead, and its name is
// formatted only when DumpStateMachines asks.
type Name string

func (n Name) String() string { return string(n) }

// NewStateMachine registers a continuation-tier process with the engine
// (the registry feeds DumpStateMachines; there is nothing to "start" —
// the machine runs whenever its callbacks do).
func (e *Engine) NewStateMachine(name fmt.Stringer, state string) *StateMachine {
	sm := &StateMachine{eng: e, name: name, state: state, since: e.now}
	e.machines = append(e.machines, sm)
	return sm
}

// Name returns the process name.
func (sm *StateMachine) Name() string { return sm.name.String() }

// State returns the current state label.
func (sm *StateMachine) State() string { return sm.state }

// Engine returns the engine the machine runs on.
func (sm *StateMachine) Engine() *Engine { return sm.eng }

// Goto transitions to a new state label.
func (sm *StateMachine) Goto(state string) {
	sm.state = state
	sm.since = sm.eng.now
}

// StateAge reports how long the machine has been in its current state
// (now minus the last transition time) — the first thing to look at when
// diagnosing a wedged service.
func (sm *StateMachine) StateAge() Time { return sm.eng.now - sm.since }

// DumpStateMachines returns "name: state (age)" for every registered
// continuation-tier process, sorted by name — the callback-tier
// counterpart of the blocked-process list in ErrStall, for debugging
// quiesced or wedged simulations. The age is how long the machine has
// sat in its current state; a link pump idle for a millisecond on a
// machine that should be streaming is the wedge.
func (e *Engine) DumpStateMachines() []string {
	out := make([]string, len(e.machines))
	for i, sm := range e.machines {
		out[i] = fmt.Sprintf("%s: %s (age %v)", sm.Name(), sm.state, sm.StateAge())
	}
	sort.Strings(out)
	return out
}

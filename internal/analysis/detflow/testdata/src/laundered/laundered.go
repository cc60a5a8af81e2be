// Package laundered is the acceptance pair for the interprocedural
// gate: Broadcast schedules events in map order, but the scheduling
// call is laundered through one same-package helper. A lexical scan
// sees only a plain function call in the loop body; detflow's callgraph
// summary carries the Schedules bit out of helper and flags the range
// statement with the witness chain.
package laundered

import "event"

func helper(eng *event.Engine, when event.Time) {
	eng.At(when, func() {})
}

// Broadcast fans a tick out to every peer. The map's iteration order
// becomes event-scheduling order one call level down.
func Broadcast(eng *event.Engine, peers map[string]event.Time) {
	for _, when := range peers { // want `iteration over map peers is unordered but the body calls helper, which schedules events \(helper -> event\.At\)`
		helper(eng, when)
	}
}

package scu

import (
	"strings"
	"testing"
)

// TestStateMachineDump spot-checks the introspection the refactor added:
// after Start every link unit is a named state machine parked idle.
func TestStateMachineDump(t *testing.T) {
	pr := newPair(t, Config{})
	pr.run(t)
	found := 0
	for _, line := range pr.eng.DumpStateMachines() {
		if strings.HasPrefix(line, "A scu+0 tx: idle") || strings.HasPrefix(line, "B scu-0 tx: idle") {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("link-unit machines missing from dump: %v", pr.eng.DumpStateMachines())
	}
}

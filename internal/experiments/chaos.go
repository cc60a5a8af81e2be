package experiments

import (
	"fmt"

	"qcdoc/internal/core"
)

// E16 survives a node death mid-solve: deterministic fault injection,
// watchdog detection over the Ethernet/JTAG side network, daughterboard
// isolation, checkpoint restore on a repartitioned machine, and
// re-convergence — run twice from the same fault seed to prove the
// whole recovery timeline is bit-reproducible (DESIGN.md §12).
func E16() (Table, error) {
	t := Table{
		ID:     "E16",
		Title:  "Chaos: survive a node death mid-solve (DESIGN.md §12)",
		Header: []string{"quantity", "run 1", "run 2", "identical"},
	}
	run := func() (*core.ChaosOutcome, error) {
		return core.RunChaosWilson(core.CanonicalChaos(16))
	}
	o1, err := run()
	if err != nil {
		return t, err
	}
	o2, err := run()
	if err != nil {
		return t, err
	}
	if len(o1.Attempts) < 2 || !o1.Attempts[0].Aborted {
		return t, fmt.Errorf("E16: no recovery happened: %+v", o1.Attempts)
	}
	first := o1.Attempts[0]
	last := o1.Attempts[len(o1.Attempts)-1]
	f2 := o2.Attempts[0]
	same := func(a, b any) string { return fmt.Sprint(a == b) }
	t.Rows = append(t.Rows,
		[]string{"attempts (restarts + final)",
			fmt.Sprint(len(o1.Attempts)), fmt.Sprint(len(o2.Attempts)),
			same(len(o1.Attempts), len(o2.Attempts))},
		[]string{"node death detected",
			first.Failure.String(), f2.Failure.String(), same(first.Failure, f2.Failure)},
		[]string{"detect latency",
			fmt.Sprint(first.Failure.DetectLatency), fmt.Sprint(f2.Failure.DetectLatency),
			same(first.Failure.DetectLatency, f2.Failure.DetectLatency)},
		[]string{"partition after isolation",
			fmt.Sprintf("%d nodes", last.Nodes), fmt.Sprintf("%d nodes", o2.Attempts[len(o2.Attempts)-1].Nodes),
			same(last.Nodes, o2.Attempts[len(o2.Attempts)-1].Nodes)},
		[]string{"restored CG iteration",
			fmt.Sprint(last.RestoredIter), fmt.Sprint(o2.Attempts[len(o2.Attempts)-1].RestoredIter),
			same(last.RestoredIter, o2.Attempts[len(o2.Attempts)-1].RestoredIter)},
		[]string{"converged / residual",
			fmt.Sprintf("%v / %.2g", o1.Converged, o1.RelResidual),
			fmt.Sprintf("%v / %.2g", o2.Converged, o2.RelResidual),
			same(o1.RelResidual, o2.RelResidual)},
		[]string{"solution CRC",
			fmt.Sprintf("%#x", o1.SolutionCRC), fmt.Sprintf("%#x", o2.SolutionCRC),
			same(o1.SolutionCRC, o2.SolutionCRC)},
		[]string{"determinism digest",
			fmt.Sprintf("%#x", o1.Digest), fmt.Sprintf("%#x", o2.Digest),
			same(o1.Digest, o2.Digest)},
	)
	if o1.Digest != o2.Digest {
		t.Notes = append(t.Notes, "ERROR: same fault seed, different recovery timelines!")
	}
	return t, nil
}

package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestQcdocMain is not a test of its own: the tests below re-execute the
// test binary with `-test.run=^TestQcdocMain$ -- <qcdoc args>`, and it
// runs main on the arguments after the `--`, exiting as qcdoc would.
func TestQcdocMain(t *testing.T) {
	if flag.NArg() == 0 {
		return
	}
	os.Args = append([]string{"qcdoc"}, flag.Args()...)
	main()
	os.Exit(0)
}

// qcdoc runs the command line in a child process and returns its exit
// code and standard error.
func qcdoc(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestQcdocMain$", "--"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("qcdoc %s: %v", strings.Join(args, " "), err)
	return 0, ""
}

// A chaos campaign is Wilson only: asking for another operator beside
// -chaos, -storm or -faultseeds is a usage error, refused before any
// run starts.
func TestFleetChaosRefusesOtherOps(t *testing.T) {
	for _, chaos := range [][]string{{"-chaos"}, {"-storm"}, {"-faultseeds", "16"}} {
		args := append([]string{"fleet", "-ops", "wilson,clover"}, chaos...)
		code, stderr := qcdoc(t, args...)
		if code != 2 || !strings.Contains(stderr, "Wilson only") || !strings.Contains(stderr, "Usage of fleet") {
			t.Errorf("qcdoc %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr)
		}
	}
}

// solve and fleet report a DWF solve at Ls 0 the same way: the run's
// typed parameter error, exit 1.
func TestSolveRefusesLsZero(t *testing.T) {
	code, stderr := qcdoc(t, "solve", "-machine", "2", "-lattice", "4,4,4,4", "-op", "dwf", "-ls", "0")
	if code != 1 || !strings.Contains(stderr, "solver parameters out of range") {
		t.Errorf("solve -ls 0: exit %d, stderr:\n%s", code, stderr)
	}
}

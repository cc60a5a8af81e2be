package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"qcdoc/internal/core"
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
// code, standard output and standard error.
func qcdoc(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestQcdocMain$", "--"}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, out.String(), errOut.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), out.String(), errOut.String()
	}
	t.Fatalf("qcdoc %s: %v", strings.Join(args, " "), err)
	return 0, "", ""
}

// A chaos campaign is Wilson only: asking for another operator beside
// -chaos, -storm or -faultseeds is a usage error, refused before any
// run starts.
func TestFleetChaosRefusesOtherOps(t *testing.T) {
	for _, chaos := range [][]string{{"-chaos"}, {"-storm"}, {"-faultseeds", "16"}} {
		args := append([]string{"fleet", "-ops", "wilson,clover"}, chaos...)
		code, _, stderr := qcdoc(t, args...)
		if code != 2 || !strings.Contains(stderr, "Wilson only") || !strings.Contains(stderr, "Usage of fleet") {
			t.Errorf("qcdoc %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr)
		}
	}
}

// A DWF run at Ls 0 fails with the run's typed parameter error, exit 1.
func TestFleetRefusesLsZero(t *testing.T) {
	code, _, stderr := qcdoc(t, "fleet", "-machine", "2", "-ops", "dwf", "-ls", "0")
	if code != 1 || !strings.Contains(stderr, core.ErrSolveParams.Error()) {
		t.Errorf("fleet -ops dwf -ls 0: exit %d, stderr:\n%s", code, stderr)
	}
}

// An extent below 1 or fewer than one worker is a usage error: exit 2
// with a message naming the flag, never a panic or a run started for it.
func TestRefusesOutOfRangeInputs(t *testing.T) {
	for _, c := range []struct{ args, flag string }{
		{"fleet -machine 2,0", "-machine"},
		{"fleet -lattices 4,4,4,4;0,4,4,4", "-lattices"},
		{"fleet -lattices 4,4,4", "-lattices"},
		{"fleet -workers 0", "-workers"},
		{"fleet -workers -3", "-workers"},
	} {
		code, stdout, stderr := qcdoc(t, strings.Fields(c.args)...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.flag) || strings.Contains(stderr, "panic:") {
			t.Errorf("qcdoc %s: exit %d, stdout:\n%s\nstderr:\n%s", c.args, code, stdout, stderr)
		}
	}
}

// fleet is the one subcommand: the removed info, scaling and estimate
// (their numbers are benchtables' E6-E9 and E11) and an unknown name are
// usage errors whose usage line names only fleet.
func TestOnlyFleetIsACommand(t *testing.T) {
	for _, args := range [][]string{{"info"}, {"scaling", "-lattice", "32,32,32,64"}, {"estimate"}, {"bogus"}} {
		code, stdout, stderr := qcdoc(t, args...)
		if code != 2 || stdout != "" || strings.TrimSpace(stderr) != "usage: qcdoc fleet [flags]" {
			t.Errorf("qcdoc %s: exit %d, stdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, stdout, stderr)
		}
	}
}

// One lattice and one operator is a single solve: its line carries the
// run digest and the solve's share of peak.
func TestFleetSingleSolve(t *testing.T) {
	code, stdout, stderr := qcdoc(t, "fleet", "-machine", "2,2", "-lattices", "4,4,4,4", "-tol", "1e-4", "-workers", "1")
	if code != 0 || !strings.Contains(stdout, "39.6% of peak  digest 0xb0448e17b7723df7") {
		t.Errorf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// A chaos run starts from the canonical scenario, and a flag given on
// the command line overrides it: -seed moves the digest to the one the
// same seed gives core.RunChaosWilson, a bare run keeps the pinned one.
func TestFleetChaosFlagsOverrideCanonical(t *testing.T) {
	for _, c := range []struct {
		flags  []string
		digest string
	}{
		{nil, "0xbe631344be792224"},
		{[]string{"-seed", "7"}, "0x92192f6ed24e233f"},
	} {
		args := append([]string{"fleet", "-machine", "2,2,2", "-faultseeds", "16"}, c.flags...)
		code, stdout, stderr := qcdoc(t, args...)
		if code != 0 || !strings.Contains(stdout, "fseed=16") || !strings.Contains(stdout, "digest "+c.digest) {
			t.Errorf("qcdoc %s: exit %d, want digest %s, stdout:\n%s\nstderr:\n%s",
				strings.Join(args, " "), code, c.digest, stdout, stderr)
		}
	}
}

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

// TestBenchtablesMain is not a test of its own: the tests below
// re-execute the test binary with `-test.run=^TestBenchtablesMain$ --
// <benchtables args>`, and it runs main on the arguments after the `--`,
// exiting as benchtables would.
func TestBenchtablesMain(t *testing.T) {
	if flag.NArg() == 0 {
		return
	}
	os.Args = append([]string{"benchtables"}, flag.Args()...)
	flag.CommandLine = flag.NewFlagSet("benchtables", flag.ExitOnError)
	main()
	os.Exit(0)
}

// benchtables runs the command line in a child process and returns its
// exit code, standard output and standard error.
func benchtables(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestBenchtablesMain$", "--"}, args...)...)
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
	t.Fatalf("benchtables %s: %v", strings.Join(args, " "), err)
	return 0, "", ""
}

// An id that names no experiment is a usage error: exit 2 with the id
// and the valid ids on stderr, and no table printed, not even for the
// ids beside it that are valid.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	code, stdout, stderr := benchtables(t, "-e", "E9,E99")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `"E99"`) ||
		!strings.Contains(stderr, "valid: E1,E2,") || !strings.Contains(stderr, ",E1f") {
		t.Errorf("-e E9,E99: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// Ids match whatever their case: -e e9 prints E9 alone.
func TestSelectsByID(t *testing.T) {
	code, stdout, stderr := benchtables(t, "-e", "e9")
	if code != 0 || !strings.HasPrefix(stdout, "**E9: ") || strings.Count(stdout, "**E") != 1 {
		t.Errorf("-e e9: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

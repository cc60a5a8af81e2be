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

// TestQdaemonMain is not a test of its own: the tests below re-execute
// the test binary with `-test.run=^TestQdaemonMain$ -- <qdaemon args>`,
// and it runs main on the arguments after the `--`, exiting as qdaemon
// would.
func TestQdaemonMain(t *testing.T) {
	if flag.NArg() == 0 {
		return
	}
	os.Args = append([]string{"qdaemon"}, flag.Args()...)
	main()
	os.Exit(0)
}

// runQdaemon runs the command line in a child process and returns its
// exit code, standard output and standard error.
func runQdaemon(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestQdaemonMain$", "--"}, args...)...)
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
	t.Fatalf("qdaemon %s: %v", strings.Join(args, " "), err)
	return 0, "", ""
}

// A -c script stops at its first failing command and exits 1: the
// commands after it do not run.
func TestScriptExitsOneOnFailure(t *testing.T) {
	for _, c := range []struct{ script, stderr string }{
		{"frobnicate", `unknown command "frobnicate"`},
		{"boot; run j1 nosuch", "no such program nosuch"},
		{"frobnicate; boot", `unknown command "frobnicate"`},
	} {
		code, stdout, stderr := runQdaemon(t, "-machine", "2,2", "-c", c.script)
		if code != 1 || !strings.Contains(stderr, c.stderr) {
			t.Errorf("-c %q: exit %d, stderr:\n%s", c.script, code, stderr)
		}
		if strings.HasPrefix(c.script, "frobnicate;") && stdout != "" {
			t.Errorf("-c %q: ran past the failing command:\n%s", c.script, stdout)
		}
	}
}

// A script whose every command succeeds exits 0 with its output.
func TestScriptSucceeds(t *testing.T) {
	code, stdout, stderr := runQdaemon(t, "-machine", "2,2", "-c", "boot; run j1 demo; output j1")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"booted 4 nodes", "job j1 completed on 4 nodes", "node3: rank 3 sees machine sum 6"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

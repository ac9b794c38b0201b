package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the test binary as ghload itself when GHLOAD_MAIN is set, so
// a test can check what main does with a command line, exit code included.
func TestMain(m *testing.M) {
	if os.Getenv("GHLOAD_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNegativeBodyBytesIsAUsageError: a negative payload size is refused
// with exit 2 before any serving stack is built, not a makeslice panic
// after one is up.
func TestNegativeBodyBytesIsAUsageError(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-body-bytes", "-1", "-duration", "1ms")
	cmd.Env = append(os.Environ(), "GHLOAD_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "-body-bytes -1 is negative") || strings.Contains(string(out), "self-hosted") {
		t.Errorf("want the usage error before any stack is built, got:\n%s", out)
	}
}

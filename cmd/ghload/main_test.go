package main

import (
	"bytes"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestBadFlagsAreUsageErrors: each bad flag value is refused with exit 2
// and the usage text before any serving stack is built, not defaulted,
// failed inside loadgen or, for -body-bytes -1, a makeslice panic after the
// stack is up.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-body-bytes", "-1"}, "-body-bytes -1 is negative"},
		{[]string{"-transport", "bogus"}, `unknown -transport "bogus"`},
		{[]string{"-loop", "bogus"}, `unknown -loop "bogus"`},
		{[]string{"-loop", "open", "-rate", "-5"}, "-rate -5 is not positive"},
		{[]string{"-duration", "-1s"}, "-duration -1s is not positive"},
		{[]string{"-duration", "0"}, "-duration 0s is not positive"},
		{[]string{"-workers", "0"}, "-workers 0 is below 1"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2\n%s", code, &stderr)
			}
			out := stderr.String()
			if !strings.Contains(out, tc.want) || !strings.Contains(out, "Usage of ghload") {
				t.Errorf("want %q and the usage text, got:\n%s", tc.want, out)
			}
			if strings.Contains(out, "self-hosted") || stdout.Len() != 0 {
				t.Errorf("a stack was built or a run reported:\n%s%s", &stdout, out)
			}
		})
	}
}

// TestFailedRunTearsTheStackDown: a run that fails after the self-hosted
// stack is up (every request to an unknown function is a 404) exits 1, and
// by then both logged listeners are closed: the teardown and its
// leaked-frame check ran.
func TestFailedRunTearsTheStackDown(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fn", "nosuch", "-duration", "50ms", "-quiet"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, &stderr)
	}
	m := regexp.MustCompile(`self-hosted stack on http://(\S+) \(http\) and (\S+) \(binary\)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no self-hosted line in:\n%s", &stderr)
	}
	for _, addr := range m[1:] {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts after run returned", addr)
		}
	}
}

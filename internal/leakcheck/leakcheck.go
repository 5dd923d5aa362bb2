// Package leakcheck fails tests that leave goroutines running — the
// distributed analogue of a file-descriptor leak. A mesh teardown that
// strands a rank goroutine in a collective, or an engine shutdown that
// leaves a replica leader blocked on its work channel, passes every
// functional assertion and then deadlocks some later test (or the race
// detector) at a distance. Calling Check(t) at the top of a test makes
// the strand itself the failure, with the leaked stacks in the output.
//
// The check is goleak-style: when the test ends it polls the runtime's
// goroutine dump until only benign goroutines (the testing harness, the
// runtime's own workers) remain, giving legitimate teardown a grace
// period to finish, and fails with the surviving stanzas once the grace
// expires.
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// defaultGrace is how long Check waits for teardown goroutines to exit
// before declaring them leaked. Abort cascades and channel-closing
// shutdown protocols finish in microseconds; two seconds keeps slow CI
// machines from flaking.
const defaultGrace = 2 * time.Second

// TestingT is the subset of *testing.T the checker needs; an interface
// so the package's own tests can observe failures without failing.
type TestingT interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// checkGrace is the grace period Check uses; a variable so the
// package's own tests can shorten the failing path.
var checkGrace = defaultGrace

// Check registers a cleanup that fails t if goroutines beyond the benign
// set are still running when the test (and its other cleanups) finish.
// Call it first thing in the test so its cleanup runs last.
func Check(t TestingT) {
	t.Helper()
	t.Cleanup(func() {
		if err := noLeaks(checkGrace); err != nil {
			t.Errorf("goroutine leak:\n%v", err)
		}
	})
}

// noLeaks polls until no interesting goroutines remain or the grace
// period expires; it returns an error carrying the leaked stacks.
func noLeaks(grace time.Duration) error {
	deadline := time.Now().Add(grace)
	delay := time.Millisecond
	for {
		leaked := interesting(stacks())
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutine(s) still running after %v:\n\n%s",
				len(leaked), grace, strings.Join(leaked, "\n\n"))
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}

// stacks returns the full goroutine dump split into per-goroutine
// stanzas.
func stacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
	for _, s := range strings.Split(string(buf), "\n\n") {
		if strings.HasPrefix(s, "goroutine ") {
			out = append(out, strings.TrimRight(s, "\n"))
		}
	}
	return out
}

// benignMarks identify goroutines that are part of the harness or the
// runtime rather than the code under test.
var benignMarks = []string{
	"repro/internal/leakcheck.stacks(", // the polling goroutine itself
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"testing.runTests(",
	"testing.(*M).",
	"testing.(*testContext)",
	"created by runtime",
	"runtime.ReadTrace",
	"runtime/trace.Start",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime.ensureSigM",
}

// interesting filters the dump down to goroutines worth reporting.
func interesting(stanzas []string) []string {
	var out []string
stanza:
	for _, s := range stanzas {
		for _, mark := range benignMarks {
			if strings.Contains(s, mark) {
				continue stanza
			}
		}
		out = append(out, s)
	}
	return out
}

package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func TestNoLeaksOnQuietProcess(t *testing.T) {
	if err := noLeaks(time.Second); err != nil {
		t.Fatalf("quiet test binary reported a leak:\n%v", err)
	}
}

func TestDetectsAndReleasesLeak(t *testing.T) {
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-block
	}()

	err := noLeaks(50 * time.Millisecond)
	if err == nil {
		t.Fatal("noLeaks missed a goroutine parked on a channel")
	}
	if !strings.Contains(err.Error(), "chan receive") {
		t.Errorf("leak report does not show the blocked stack:\n%v", err)
	}

	// Releasing the goroutine clears the report within the grace period
	// even though it exits asynchronously.
	close(block)
	<-done
	if err := noLeaks(time.Second); err != nil {
		t.Fatalf("leak report persists after the goroutine exited:\n%v", err)
	}
}

// fakeT records failures instead of failing, so the Check path itself is
// testable.
type fakeT struct {
	cleanups []func()
	failures []string
}

func (f *fakeT) Helper()                           {}
func (f *fakeT) Errorf(format string, args ...any) { f.failures = append(f.failures, format) }
func (f *fakeT) Cleanup(fn func())                 { f.cleanups = append(f.cleanups, fn) }
func (f *fakeT) runCleanups() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

func TestCheckFailsThroughCleanup(t *testing.T) {
	old := checkGrace
	checkGrace = 50 * time.Millisecond
	defer func() { checkGrace = old }()

	block := make(chan struct{})
	done := make(chan struct{})
	ft := &fakeT{}
	Check(ft)
	go func() {
		defer close(done)
		<-block
	}()

	ft.runCleanups()
	if len(ft.failures) == 0 {
		t.Fatal("Check did not report the parked goroutine")
	}
	close(block)
	<-done
}

func TestCheckPassesOnCleanExit(t *testing.T) {
	ft := &fakeT{}
	Check(ft)
	ch := make(chan struct{})
	go func() { close(ch) }()
	<-ch
	ft.runCleanups()
	if len(ft.failures) != 0 {
		t.Fatalf("Check failed a clean test: %v", ft.failures)
	}
}

package ckpt

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// watchOpts polls fast so the tests stay quick; MaxInterval still above
// Interval exercises the backoff arithmetic.
func watchOpts() WatchOptions {
	return WatchOptions{Interval: 2 * time.Millisecond, MaxInterval: 10 * time.Millisecond}
}

// commitStep writes a minimal committed checkpoint (one shard + manifest)
// into the retention step directory for step under root.
func commitStep(t *testing.T, root string, step int) string {
	t.Helper()
	dir := StepDir(root, step)
	writeCommitted(t, dir, step)
	return dir
}

// writeCommitted writes a complete checkpoint into dir itself.
func writeCommitted(t *testing.T, dir string, step int) {
	t.Helper()
	if err := WriteShard(dir, 0, Tree{Format: Format}); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, Manifest{World: 1, Step: step}); err != nil {
		t.Fatal(err)
	}
}

// waitUpdate receives the next update or fails after a deadline.
func waitUpdate(t *testing.T, ch <-chan Update) Update {
	t.Helper()
	select {
	case u, ok := <-ch:
		if !ok {
			t.Fatal("watch channel closed while an update was expected")
		}
		return u
	case <-time.After(5 * time.Second):
		t.Fatal("no watch update within 5s")
	}
	panic("unreachable")
}

// expectQuiet asserts no update arrives within a few poll intervals.
func expectQuiet(t *testing.T, ch <-chan Update) {
	t.Helper()
	select {
	case u := <-ch:
		t.Fatalf("unexpected update %+v", u)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestWatchLatestEmitsNewCommits pins the core contract: the checkpoint
// present at watch start is the baseline (not emitted), and each later
// committed step emits exactly one update resolving to its directory.
func TestWatchLatestEmitsNewCommits(t *testing.T) {
	root := t.TempDir()
	commitStep(t, root, 1)
	ch, stop := WatchLatest(root, watchOpts())
	defer stop()

	expectQuiet(t, ch) // the baseline step-1 checkpoint is not an update

	want2 := commitStep(t, root, 2)
	u := waitUpdate(t, ch)
	if u.Dir != want2 || u.Step != 2 {
		t.Fatalf("update %+v, want dir %s step 2", u, want2)
	}

	want5 := commitStep(t, root, 5)
	u = waitUpdate(t, ch)
	if u.Dir != want5 || u.Step != 5 {
		t.Fatalf("update %+v, want dir %s step 5", u, want5)
	}
}

// TestWatchLatestSkipsPartialSaves pins the commit rule: a step directory
// holding shards but no manifest — a save in flight, or crash debris —
// must never be emitted; the same directory emits once the manifest lands.
func TestWatchLatestSkipsPartialSaves(t *testing.T) {
	root := t.TempDir()
	commitStep(t, root, 1)
	ch, stop := WatchLatest(root, watchOpts())
	defer stop()

	// A partial (uncommitted) step-2 save: shard written, no manifest.
	partial := StepDir(root, 2)
	if err := WriteShard(partial, 0, Tree{Format: Format}); err != nil {
		t.Fatal(err)
	}
	expectQuiet(t, ch)

	// Unrelated debris must not emit either.
	if err := os.MkdirAll(filepath.Join(root, "not-a-step"), 0o755); err != nil {
		t.Fatal(err)
	}
	expectQuiet(t, ch)

	// The manifest is the commit point: once it lands, the update flows.
	if err := WriteManifest(partial, Manifest{World: 1, Step: 2}); err != nil {
		t.Fatal(err)
	}
	u := waitUpdate(t, ch)
	if u.Dir != partial || u.Step != 2 {
		t.Fatalf("update %+v, want dir %s step 2", u, partial)
	}
}

// TestWatchLatestEmptyBaseline starts the watch on a directory with no
// committed checkpoint at all: the first commit is an update (there is no
// baseline to supersede), partial states before it stay silent.
func TestWatchLatestEmptyBaseline(t *testing.T) {
	root := t.TempDir()
	ch, stop := WatchLatest(root, watchOpts())
	defer stop()

	expectQuiet(t, ch)
	want := commitStep(t, root, 3)
	u := waitUpdate(t, ch)
	if u.Dir != want || u.Step != 3 {
		t.Fatalf("update %+v, want dir %s step 3", u, want)
	}
}

// TestWatchLatestSingleSlotOverwrite pins in-place re-saves of a plain
// checkpoint directory (the benchmark's traced pass writes one): the resolved
// path never changes, so the manifest's step count must drive the
// emission.
func TestWatchLatestSingleSlotOverwrite(t *testing.T) {
	dir := t.TempDir()
	writeCommitted(t, dir, 2)
	ch, stop := WatchLatest(dir, watchOpts())
	defer stop()

	expectQuiet(t, ch)
	writeCommitted(t, dir, 7) // overwrite in place at a later step
	u := waitUpdate(t, ch)
	if u.Dir != dir || u.Step != 7 {
		t.Fatalf("update %+v, want dir %s step 7", u, dir)
	}
	// A same-step rewrite does not supersede anything.
	writeCommitted(t, dir, 7)
	expectQuiet(t, ch)
}

// TestWatchLatestLatestWins pins the buffered latest-wins delivery: when
// several checkpoints commit while nobody is receiving, the consumer sees
// the newest one (possibly after an intermediate), never an older one
// after a newer one.
func TestWatchLatestLatestWins(t *testing.T) {
	root := t.TempDir()
	commitStep(t, root, 1)
	ch, stop := WatchLatest(root, watchOpts())
	defer stop()

	commitStep(t, root, 2)
	commitStep(t, root, 3)
	want := commitStep(t, root, 9)
	// Give the watcher time to observe all three and collapse the backlog.
	deadline := time.Now().Add(5 * time.Second)
	for {
		u := waitUpdate(t, ch)
		if u.Step == 9 {
			if u.Dir != want {
				t.Fatalf("update %+v, want dir %s", u, want)
			}
			return
		}
		if u.Step < 1 || u.Step > 9 || time.Now().After(deadline) {
			t.Fatalf("implausible update %+v", u)
		}
	}
}

// TestWatchLatestStop pins teardown: stop blocks until the goroutine has
// exited and the channel closes, so callers can leak-check.
func TestWatchLatestStop(t *testing.T) {
	root := t.TempDir()
	ch, stop := WatchLatest(root, watchOpts())
	stop()
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after stop")
	}
	// A second stop call must not be needed; the watch is fully dead, so a
	// late commit never emits.
	commitStep(t, root, 1)
	time.Sleep(20 * time.Millisecond)
	if _, ok := <-ch; ok {
		t.Fatal("update emitted after stop")
	}
}

// TestWatchLatestHostileDirectory plants, after the watch starts, entries a
// torn save or a hostile writer could leave at step 1. None resolves as a
// checkpoint and none is emitted; then one valid commit at step 2 emits
// exactly once, and stop returns with the channel closed.
func TestWatchLatestHostileDirectory(t *testing.T) {
	manifest := func(t *testing.T, root, body string) {
		t.Helper()
		dir := StepDir(root, 1)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name  string
		plant func(t *testing.T, root string)
	}{
		{"garbage manifest", func(t *testing.T, root string) {
			manifest(t, root, "\x00{\"format\": [}")
		}},
		{"manifest-less step dir", func(t *testing.T, root string) {
			if err := WriteShard(StepDir(root, 1), 0, Tree{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"step entry is a file", func(t *testing.T, root string) {
			if err := os.WriteFile(StepDir(root, 1), []byte(`{"format":"dchag-ckpt/v2"}`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"manifest naming ../x", func(t *testing.T, root string) {
			manifest(t, root, `{"format":"`+Format+`","world":1,"partitions":1,"step":1,"shards":["../x"]}`)
		}},
		{"v1 manifest", func(t *testing.T, root string) {
			manifest(t, root, `{"format":"dchag-ckpt/v1","world":1,"partitions":1,"step":1,"shards":["shard-0000.gob"]}`)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			ch, stop := WatchLatest(root, watchOpts())
			c.plant(t, root)
			if dir, step, ok := resolveLatest(root); ok {
				t.Fatalf("resolved %s at step %d", dir, step)
			}
			expectQuiet(t, ch)
			want := commitStep(t, root, 2)
			if u := waitUpdate(t, ch); u.Dir != want || u.Step != 2 {
				t.Fatalf("update %+v, want dir %s step 2", u, want)
			}
			expectQuiet(t, ch)
			stop()
			if _, ok := <-ch; ok {
				t.Fatal("channel not closed after stop")
			}
		})
	}
}

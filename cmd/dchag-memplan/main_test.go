package main

import "testing"

// TestCheckFlags: every input the plan would misread is refused, and the
// documented examples pass.
func TestCheckFlags(t *testing.T) {
	// def is the command line's defaults.
	def := planFlags{model: "7B", method: "baseline", kind: "L", channels: 512, batch: 4, tp: 1, fsdp: 1, dp: 1}
	for _, tc := range []struct {
		name string
		set  func(f *planFlags)
		ok   bool
	}{
		{"defaults", func(f *planFlags) {}, true},
		{"7B tp 16", func(f *planFlags) { f.tp = 16 }, true},
		{"26B dchag L", func(f *planFlags) { f.model, f.channels, f.method, f.tp = "26B", 256, "dchag", 32 }, true},
		{"dchag C tree 2", func(f *planFlags) { f.method, f.kind, f.tree = "dchag", "C", 2 }, true},
		{"dchag one channel per rank", func(f *planFlags) { f.method, f.tp, f.channels = "dchag", 2, 2 }, true},
		{"baseline tp over channels", func(f *planFlags) { f.tp, f.channels = 3, 2 }, true},
		{"unknown model", func(f *planFlags) { f.model = "8B" }, false},
		{"unknown method", func(f *planFlags) { f.method = "tp" }, false},
		{"kind P", func(f *planFlags) { f.kind = "P" }, false},
		{"kind typo", func(f *planFlags) { f.kind = "c" }, false},
		{"tp 0", func(f *planFlags) { f.tp = 0 }, false},
		{"fsdp 0", func(f *planFlags) { f.fsdp = 0 }, false},
		{"dp -1", func(f *planFlags) { f.dp = -1 }, false},
		{"channels 0", func(f *planFlags) { f.channels = 0 }, false},
		{"batch 0", func(f *planFlags) { f.batch = 0 }, false},
		{"tree -1", func(f *planFlags) { f.tree = -1 }, false},
		{"dchag tp over channels", func(f *planFlags) { f.method, f.tp, f.channels = "dchag", 3, 2 }, false},
	} {
		f := def
		tc.set(&f)
		if _, _, err := checkFlags(f); (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%+v) = %v, want ok=%v", tc.name, f, err, tc.ok)
		}
	}
}

package main

import "testing"

// TestCheckFlags: every flag combination the run would silently ignore or
// misread is refused; the plain serial, D-CHAG, hybrid and elastic runs
// pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name               string
		ranks, dp          int
		elastic            bool
		failRank, failStep int
		ok                 bool
	}{
		{"serial", 1, 1, false, -1, -1, true},
		{"dchag", 2, 1, false, -1, -1, true},
		{"hybrid", 2, 2, false, -1, -1, true},
		{"elastic", 2, 1, true, -1, -1, true},
		{"elastic with fault", 4, 1, true, 1, 3, true},
		{"ranks 0", 0, 1, false, -1, -1, false},
		{"ranks -1", -1, 1, false, -1, -1, false},
		{"dp 0", 2, 0, false, -1, -1, false},
		{"dp over serial", 1, 2, false, -1, -1, false},
		{"elastic serial", 1, 1, true, -1, -1, false},
		{"fail-rank without elastic", 2, 1, false, 1, 1, false},
		{"fail-step alone without elastic", 2, 1, false, -1, 1, false},
		{"fail-rank alone under elastic", 2, 1, true, 1, -1, false},
	} {
		err := checkFlags(tc.ranks, tc.dp, tc.elastic, tc.failRank, tc.failStep)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(ranks=%d, dp=%d, elastic=%v, fail-rank=%d, fail-step=%d) = %v, want ok=%v",
				tc.name, tc.ranks, tc.dp, tc.elastic, tc.failRank, tc.failStep, err, tc.ok)
		}
	}
}

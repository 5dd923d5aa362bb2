package main

import "testing"

// TestCheckFlags: a command line naming two modes, or a figure no
// experiment has, is refused; each mode alone, and none, passes.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    benchFlags
		ok   bool
	}{
		{"every experiment", benchFlags{}, true},
		{"json", benchFlags{json: "x.json"}, true},
		{"list", benchFlags{list: true}, true},
		{"fig", benchFlags{fig: "fig09"}, true},
		{"sweep", benchFlags{fig: "sweep"}, true},
		{"unknown fig", benchFlags{fig: "nosuchfig"}, false},
		{"retired compute", benchFlags{fig: "compute"}, false},
		{"json and fig", benchFlags{json: "x.json", fig: "fig09"}, false},
		{"json and unknown fig", benchFlags{json: "x.json", fig: "nosuchfig"}, false},
		{"list and fig", benchFlags{list: true, fig: "fig09"}, false},
		{"list and unknown fig", benchFlags{list: true, fig: "nosuchfig"}, false},
		{"json and list", benchFlags{json: "x.json", list: true}, false},
		{"all three", benchFlags{json: "x.json", list: true, fig: "fig09"}, false},
	} {
		if err := checkFlags(tc.f); (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(%+v) = %v, want ok=%v", tc.name, tc.f, err, tc.ok)
		}
	}
}

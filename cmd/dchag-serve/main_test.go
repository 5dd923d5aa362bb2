package main

import "testing"

// TestCheckLoadgen: a load generator that would send nothing, or start no
// client, is refused; without -loadgen the two flags are not read.
func TestCheckLoadgen(t *testing.T) {
	for _, tc := range []struct {
		name              string
		on                bool
		requests, clients int
		ok                bool
	}{
		{"defaults", true, 400, 16, true},
		{"one request, one client", true, 1, 1, true},
		{"more clients than requests", true, 3, 12, true},
		{"no loadgen", false, 0, 0, true},
		{"concurrency 0", true, 50, 0, false},
		{"concurrency -1", true, 50, -1, false},
		{"requests 0", true, 0, 16, false},
		{"requests -5", true, -5, 16, false},
	} {
		if err := checkLoadgen(tc.on, tc.requests, tc.clients); (err == nil) != tc.ok {
			t.Errorf("%s: checkLoadgen(%v, %d, %d) = %v, want ok=%v", tc.name, tc.on, tc.requests, tc.clients, err, tc.ok)
		}
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// quartiles returns the first and third quartile of a sample the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), which
// is how the benchmark's spread is defined. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between a sample's quartiles as a share of its
// median, or 0 for fewer than four values, where quartiles say little.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m := trueMedian(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// trueMedian averages the two middle values of an even-sized sample, as the
// spread's definition does; the percentile helpers use nearest rank instead.
func trueMedian(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return asc[n/2]
	}
	return (asc[n/2-1] + asc[n/2]) / 2
}

// readRecords loads the untraced results of an -out file, grouped by
// workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s:%d: a run of %s that failed its checks cannot be compared", path, line, rec.Workload)
		}
		m := byWorkload[rec.Workload]
		if m == nil {
			m = map[string][]float64{}
			byWorkload[rec.Workload] = m
		}
		for name, v := range rec.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return byWorkload, sc.Err()
}

// verdict judges side b against side a for one metric. A side with four or
// more runs whose own spread exceeds the bound cannot resolve a difference
// of that size: the pair is unresolved, neither unchanged nor moved.
func verdict(d metricDecl, a, b []float64) (rel float64, v string) {
	ma, mb := trueMedian(a), trueMedian(b)
	if ma != 0 {
		rel = (mb - ma) / ma
	}
	worse := rel
	if d.Better == "higher" {
		worse = -rel
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return rel, "unresolved"
	case worse > d.Bound:
		return rel, "worse"
	case worse < -d.Bound:
		return rel, "better"
	}
	return rel, "within"
}

// compareFiles prints one row per workload and end-to-end metric found in
// both -out files — medians of each side's runs, their relative difference,
// the bound, each side's spread and the verdict — and returns 1 when any
// pair is worse than its bound allows or unresolved, 2 when the files
// cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readRecords(pathB); err == nil {
			return compareRecords(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareRecords(w io.Writer, a, b map[string]map[string][]float64) int {
	rows, bad := 0, 0
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %8s %7s %9s %9s  %s\n",
		"workload", "metric", "a", "b", "diff", "bound", "spread_a", "spread_b", "verdict")
	for _, name := range workloadNames() {
		if a[name] == nil || b[name] == nil {
			continue
		}
		for _, d := range endToEnd {
			xa, xb := a[name][d.Name], b[name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			rel, v := verdict(d, xa, xb)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			rows++
			fmt.Fprintf(w, "%-13s %-18s %12.4f %12.4f %+7.1f%% %6.0f%% %8.1f%% %8.1f%%  %s\n",
				name, d.Name, trueMedian(xa), trueMedian(xb), rel*100, d.Bound*100, spread(xa)*100, spread(xb)*100, v)
		}
	}
	switch {
	case rows == 0:
		fmt.Fprintln(os.Stderr, "benchmark: the two files share no workload")
		return 2
	case bad > 0:
		return 1
	}
	return 0
}

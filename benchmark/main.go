// Command benchmark is the repository's wall-clock benchmark: five seeded
// workloads on the real in-process mesh — three training, two serving —
// each reporting the same four end-to-end metrics with tracing off, and 67
// per-layer metrics from a separate traced pass. Layers are measured from
// outside, through the seams the code already exposes; see README.md.
//
//	go run ./benchmark --workload hsi_tp2 --seed 1 --seconds 12 --trace 0
//	go run ./benchmark -compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics, as BENCHMARK.json's contract asks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -out file: the result with what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// run carries one invocation's settings and collects what it measures.
type run struct {
	seed     int64
	start    time.Time
	seconds  float64
	quick    bool
	traceOut string

	log               io.Writer // progress and diagnostics, one "# ..." line each
	attempted, failed int
	problems          []string // failed output checks
	values            map[string]float64
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// within reports whether the run has used less than the given share of its
// time. Loops that repeat a measurement start another round while it holds,
// so a run lasts its --seconds plus at most one round; the quick profile
// never repeats.
func (r *run) within(share float64) bool {
	return !r.quick && time.Since(r.start).Seconds() < share*r.seconds
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "# "+format+"\n", args...)
}

// fail records a failed output check; the run then reports correct: false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	r.logf("CHECK FAILED: %s", msg)
}

func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// tempDir makes a scratch directory under the working directory — a run
// reads and writes only inside its checkout — and returns its removal. With
// no directory to be had it returns "", which the training loops refuse to
// checkpoint into, so the workload that needs one fails as a whole.
func (r *run) tempDir() (string, func()) {
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		r.fail("creating scratch directory: %v", err)
		return "", func() {}
	}
	return dir, func() {
		if err := os.RemoveAll(dir); err != nil {
			r.logf("removing %s: %v", dir, err)
		}
	}
}

// result assembles the declared metrics; a declared metric the run did not
// set, or set to something that is not a number, makes the run incorrect.
func (r *run) result(decls []metricDecl) result {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range decls {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s has no finite value", d.Name)
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	res.Correct = len(r.problems) == 0 && r.failed == 0 && r.attempted > 0
	return res
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of the generated inputs, model weights, masks and arrival schedule")
		seconds  = flag.Float64("seconds", 12, "how long the run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
		quick    = flag.Bool("quick", false, "tiny shapes and counts: exercises the pipeline, measures nothing")
		out      = flag.String("out", "", "append the result as one JSON line to this file")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the workload's Chrome trace into this directory")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	w, ok := findWorkload(*name, *quick)
	if !ok || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload <%s> [--seed n] [--seconds s] [--trace 0|1]\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	procs := min(runtime.NumCPU(), w.procs())
	runtime.GOMAXPROCS(procs)
	r := &run{seed: *seed, start: time.Now(), seconds: *seconds, quick: *quick, traceOut: *traceOut, log: os.Stdout, values: map[string]float64{}}
	r.logf("workload %s seed %d seconds %g trace %d GOMAXPROCS %d", w.name, *seed, *seconds, *trace, procs)
	decls := endToEnd
	if *trace == 1 {
		decls = perLayer
	}
	r.measure(w, *trace == 1)
	res := r.result(decls)
	for _, d := range decls {
		fmt.Printf("%-28s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *trace, result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload's untraced or traced pass. A panic out of the
// program under test is reported as failed operations, not as a crash of
// the benchmark.
func (r *run) measure(w workload, traced bool) {
	defer func() {
		if rec := recover(); rec != nil {
			r.fail("the program panicked: %v", rec)
			r.attempted = max(r.attempted, 1)
			r.failed = r.attempted
		}
	}()
	// The live-heap gauge reads 0 until a collection has finished.
	runtime.GC()
	switch {
	case traced && w.train != nil:
		r.traceTrain(w)
	case traced:
		r.traceServe(w)
	case w.train != nil:
		r.runTrain(w.train)
	default:
		r.runServe(w.serve)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads(false) {
		names = append(names, w.name)
	}
	return names
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/leakcheck"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// benchmarkJSON mirrors the schema of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationsMatchBenchmarkJSON keeps the program's metric and workload
// tables and BENCHMARK.json in step, and both inside the contract's limits.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	ws := workloads(false)
	if len(ws) < 2 || len(ws) > 8 || len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("counts outside the contract: %d workloads, %d end-to-end, %d per-layer", len(ws), len(endToEnd), len(perLayer))
	}
	if len(bj.Workloads) != len(ws) || len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/per-layer, the program %d/%d/%d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(ws), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range ws {
		name(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	setup := false
	for i, d := range endToEnd {
		name(d.Name)
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end %s: unit, direction or bound outside the contract", d.Name)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		name(d.Name)
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %s: unit or direction outside the contract", d.Name)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v outside the contract", bj.RunSeconds, bj.Paths)
	}
}

// TestQuickPipeline runs every workload's untraced and traced pass at the
// quick profile and requires a correct result carrying every declared
// metric once, with a finite value, and no goroutine left behind.
func TestQuickPipeline(t *testing.T) {
	leakcheck.Check(t)
	traces := t.TempDir()
	for _, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			r := &run{seed: 3, seconds: 1, quick: true, traceOut: traces, log: io.Discard, values: map[string]float64{}}
			r.measure(w, traced)
			res := r.result(decls)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, r.problems)
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s missing, mislabelled or not finite: %+v", w.name, traced, d.Name, m)
				}
			}
			if !traced {
				for _, d := range decls {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want positive", w.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
		if _, err := os.Stat(traces + "/" + w.name + ".trace.json"); err != nil {
			t.Errorf("%s: no Chrome trace written: %v", w.name, err)
		}
	}
	left, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if strings.HasPrefix(e.Name(), ".bench_tmp-") {
			t.Errorf("scratch directory %s was left behind", e.Name())
		}
	}
}

func TestPercentiles(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median([]float64{3, 1, 2}) != 2 {
		t.Error("empty sample or unsorted median mishandled")
	}
	// Ten samples beyond p90 need n - ceil(0.9 n) >= 10: n = 100 exactly.
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 7, 3, 5, 8, 2, 9, 4, 6})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{100, 104, 96, 102, 98}); math.Abs(got-0.06) > 1e-12 {
		t.Errorf("spread = %v, want 0.06", got)
	}
}

// TestEpisodeStatsScaleByHostSpeed gives two episodes of the same work, one
// measured on a host at half speed: corrected for the host's speed both read
// the same, so the metrics are those of the undisturbed host.
func TestEpisodeStatsScaleByHostSpeed(t *testing.T) {
	if got := hostSpeed(refNominalMs, refNominalMs); got != 1 {
		t.Errorf("hostSpeed at the nominal burst time = %v, want 1", got)
	}
	if got := hostSpeed(2*refNominalMs, 2*refNominalMs); got != 0.5 {
		t.Errorf("hostSpeed at twice the nominal burst time = %v, want 0.5", got)
	}
	// At half speed the program takes 1/undisturbed(0.5) as long.
	slow := 1 / undisturbed(0.5)
	if slow <= 1 || slow >= 2 {
		t.Errorf("the program at half host speed takes %v times as long, want between 1 and 2", slow)
	}
	var st episodeStats
	st.add(1, 0.2, 1.0, 40, []float64{10, 10, 30}, 50e6)
	st.add(0.5, 0.2*slow, 1.0*slow, 40, []float64{10 * slow, 10 * slow, 30 * slow}, 70e6)
	r := &run{log: io.Discard, values: map[string]float64{}}
	st.report(r)
	want := map[string]float64{"setup_s": 0.2, "samples_per_s": 40, "op_ms_p50": 10, "peak_live_heap_mb": 70}
	for name, w := range want {
		if got := r.values[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

// TestPacerChargesStallToLaterRequests stalls the sender on a fake clock:
// requests that came due during the stall go out at once, report how late
// they are, and their due-time latency includes the wait the stall imposed.
func TestPacerChargesStallToLaterRequests(t *testing.T) {
	now := time.Duration(0)
	var slept []time.Duration
	p := pacer{
		now:   func() time.Duration { return now },
		sleep: func(d time.Duration) { slept = append(slept, d); now += d },
	}
	due := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 100 * time.Millisecond}
	service := 2 * time.Millisecond
	var late, latency []time.Duration
	for i, d := range due {
		l := p.wait(d)
		late = append(late, l)
		latency = append(latency, outcome{late: l}.latency()+service)
		if i == 0 {
			now += 45 * time.Millisecond // the sender stalls after its first request
		}
	}
	wantLate := []time.Duration{0, 35 * time.Millisecond, 25 * time.Millisecond, 0}
	for i := range due {
		if late[i] != wantLate[i] || latency[i] != wantLate[i]+service {
			t.Errorf("request %d: late %v latency %v, want late %v latency %v", i, late[i], latency[i], wantLate[i], wantLate[i]+service)
		}
	}
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 45*time.Millisecond {
		t.Errorf("sender slept %v, want [10ms 45ms]: overdue requests must not wait", slept)
	}
}

// TestWrappersAreTransparent trains a wrapped and an unwrapped model side by
// side: same parameter order, bitwise-equal loss and gradients.
func TestWrappersAreTransparent(t *testing.T) {
	a, _ := findWorkload("hsi_serial", true)
	arch := a.train.arch
	arch.Seed = 5
	plain := model.NewSerialDCHAGEquivalent(arch, arch.Partitions)
	wrapped := model.NewSerialDCHAGEquivalent(arch, arch.Partitions)
	tr := obs.NewTracer(1, 64)
	wrapModel(wrapped, tr.Rank(0))

	pp, wp := plain.Params(), wrapped.Params()
	if len(pp) != len(wp) {
		t.Fatalf("wrapped model has %d params, plain %d", len(wp), len(pp))
	}
	for i := range pp {
		if pp[i].Name != wp[i].Name {
			t.Fatalf("param %d: wrapped %q, plain %q", i, wp[i].Name, pp[i].Name)
		}
	}
	rng := tensor.NewRNG(9)
	x := tensor.Randn(rng, 2, arch.Channels, arch.ImgH, arch.ImgW)
	mask := data.RandomMask(rng, 2, arch.Tokens(), 0.5)
	target := model.Patchify(x, arch.Patch)
	step := func(m *model.FoundationModel) float64 {
		loss := nn.NewMaskedMSELoss()
		l := loss.Forward(m.Forward(x, mask), target, mask)
		m.Backward(loss.Backward())
		return l
	}
	if lp, lw := step(plain), step(wrapped); math.Float64bits(lp) != math.Float64bits(lw) {
		t.Errorf("wrapped loss %v differs from plain %v", lw, lp)
	}
	for i := range pp {
		if !sameBits(pp[i].Grad.Data, wp[i].Grad.Data) {
			t.Errorf("gradient of %s differs under the wrappers", pp[i].Name)
		}
	}
	names := map[string]int{}
	for _, e := range tr.Events(0) {
		names[e.Name]++
	}
	if names["stage.fwd"] != 1 || names["stage.bwd"] != 1 || names["nn.blocks.fwd"] != arch.Depth || names["nn.blocks.bwd"] != arch.Depth {
		t.Errorf("wrapper spans recorded: %v", names)
	}
}

// TestStepBreakdownSelfTime checks self time with nested and back-to-back
// child spans, and that only spans inside a step are counted.
func TestStepBreakdownSelfTime(t *testing.T) {
	span := func(name, cat string, start, dur int) obs.Event {
		return obs.Event{Name: name, Cat: cat, Ph: 'X', Start: time.Duration(start) * time.Millisecond, Dur: time.Duration(dur) * time.Millisecond}
	}
	events := []obs.Event{
		span("stray", "bench", 0, 5),
		span("step", "bench", 10, 100),
		span("fwd", "model", 10, 60),
		span("stage.fwd", "core", 12, 30),
		span("allgather", "comm/tp", 20, 10),
		span("nn.blocks.fwd", "nn", 42, 10), // back to back with the next
		span("nn.blocks.fwd", "nn", 52, 10),
		{Name: "marker", Ph: 'i', Start: 65 * time.Millisecond},
		span("bwd", "model", 70, 30),
		span("step", "bench", 110, 20),
		span("fwd", "model", 112, 8),
	}
	steps := stepBreakdown(events)
	if len(steps) != 2 {
		t.Fatalf("found %d steps, want 2", len(steps))
	}
	s := steps[0]
	want := map[string][2]float64{ // total, self
		"fwd":           {60, 10},
		"stage.fwd":     {30, 20},
		"comm/tp":       {10, 10},
		"nn.blocks.fwd": {20, 20},
		"bwd":           {30, 30},
	}
	for k, w := range want {
		if s.total[k] != w[0] || s.self[k] != w[1] {
			t.Errorf("%s: total %v self %v, want %v %v", k, s.total[k], s.self[k], w[0], w[1])
		}
	}
	if s.wall != 100 || s.top != 90 || s.calls["nn.blocks.fwd"] != 2 || len(s.total) != len(want) {
		t.Errorf("step 0: wall %v top %v calls %v keys %d", s.wall, s.top, s.calls, len(s.total))
	}
	if steps[1].wall != 20 || steps[1].top != 8 {
		t.Errorf("step 1: wall %v top %v, want 20 8", steps[1].wall, steps[1].top)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "samples_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{100, 130, 80, 115, 90}
	for _, c := range []struct {
		d    metricDecl
		a, b []float64
		want string
	}{
		{lower, []float64{100}, []float64{105}, "within"},
		{lower, []float64{100}, []float64{115}, "worse"},
		{lower, []float64{100}, []float64{85}, "better"},
		{higher, []float64{100}, []float64{85}, "worse"},
		{higher, []float64{100}, []float64{115}, "better"},
		{lower, steady, steady, "within"},
		{lower, steady, noisy, "unresolved"},
		{higher, noisy, steady, "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
	side := func(p50 float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"hsi_tp2": {"op_ms_p50": {p50}, "setup_s": {1}}}
	}
	var out bytes.Buffer
	if code := compareRecords(&out, side(50), side(52)); code != 0 {
		t.Errorf("a 4%% difference exits %d, want 0\n%s", code, out.String())
	}
	if code := compareRecords(&out, side(50), side(70)); code != 1 {
		t.Errorf("a 40%% regression exits %d, want 1", code)
	}
	if !strings.Contains(out.String(), "worse") || strings.Count(out.String(), "hsi_tp2") != 4 {
		t.Errorf("unexpected report:\n%s", out.String())
	}
}

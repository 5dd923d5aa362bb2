package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"compute", "fig06", "fig07", "fig08", "fig09", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "sweep", "trace"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := Find(id); !ok {
			t.Fatalf("Find(%s) failed", id)
		}
	}
	if _, ok := Find("fig99"); ok {
		t.Fatal("Find must reject unknown ids")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Headers: []string{"a", "bb"}}
	tab.Add("1", "2")
	tab.Note("hello %d", 5)
	s := tab.String()
	for _, want := range []string{"== demo ==", "a", "bb", "note: hello 5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

// cell finds the first row matching the given leading cells and returns the
// value at column idx.
func cell(t *testing.T, tab *Table, idx int, prefix ...string) string {
	t.Helper()
	for _, row := range tab.Rows {
		match := true
		for i, p := range prefix {
			if row[i] != p {
				match = false
				break
			}
		}
		if match {
			return row[idx]
		}
	}
	t.Fatalf("no row with prefix %v in table %q", prefix, tab.Title)
	return ""
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimPrefix(s, "+"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse percentage %q: %v", s, err)
	}
	return v
}

func TestFig06BoundariesInTable(t *testing.T) {
	res := runFig06()
	mem := res.Tables[0]
	if got := cell(t, mem, 7, "100M", "512"); got != "fits" {
		t.Fatalf("100M@512 = %s, want fits", got)
	}
	if got := cell(t, mem, 7, "100M", "1024"); got != "OOM" {
		t.Fatalf("100M@1024 = %s, want OOM", got)
	}
	if got := cell(t, mem, 7, "1B", "256"); got != "fits" {
		t.Fatalf("1B@256 = %s", got)
	}
	if got := cell(t, mem, 7, "3B", "256"); got != "OOM" {
		t.Fatalf("3B@256 = %s", got)
	}
	// FLOPs share of the channel stage grows with channels for each model.
	flops := res.Tables[1]
	lo, _ := strconv.ParseFloat(cell(t, flops, 2, "1B", "32"), 64)
	hi, _ := strconv.ParseFloat(cell(t, flops, 2, "1B", "512"), 64)
	if !(hi > lo) {
		t.Fatalf("tokenization FLOPs share must grow with channels: %v vs %v", lo, hi)
	}
}

func TestFig08AllGatherNegatesGains(t *testing.T) {
	res := runFig08()
	tab := res.Tables[0]
	for _, row := range tab.Rows {
		baseTokAgg, _ := strconv.ParseFloat(row[2], 64)
		distTokOnly, _ := strconv.ParseFloat(row[4], 64)
		distTokAgg, _ := strconv.ParseFloat(row[5], 64)
		baseTokOnly, _ := strconv.ParseFloat(row[3], 64)
		if !(distTokOnly < baseTokOnly) {
			t.Fatalf("dist tok must shrink tokenization: %v vs %v", distTokOnly, baseTokOnly)
		}
		if !(distTokAgg > 0.85*baseTokAgg) {
			t.Fatalf("gathered aggregation must erase most of the gain: %v vs %v", distTokAgg, baseTokAgg)
		}
	}
}

func TestFig09LinearBeatsCrossAndGainsGrowWithChannels(t *testing.T) {
	res := runFig09()
	tab := res.Tables[0]
	l512 := parsePct(t, cell(t, tab, 4, "512", "2", "D-CHAG-L-Tree0"))
	c512 := parsePct(t, cell(t, tab, 4, "512", "2", "D-CHAG-C-Tree0"))
	l1024 := parsePct(t, cell(t, tab, 4, "1024", "8", "D-CHAG-L-Tree0"))
	c1024 := parsePct(t, cell(t, tab, 4, "1024", "8", "D-CHAG-C-Tree0"))
	if !(l512 > c512 && l1024 > c1024) {
		t.Fatalf("-L must beat -C: 512(%v vs %v) 1024(%v vs %v)", l512, c512, l1024, c1024)
	}
	if !(l1024 > l512 && c1024 > c512) {
		t.Fatalf("gains must grow with channels: L(%v->%v) C(%v->%v)", l512, l1024, c512, c1024)
	}
	// Paper: D-CHAG-C at 1024 channels gains ~60%.
	if c1024 < 30 || c1024 > 90 {
		t.Fatalf("D-CHAG-C@1024 gain %v%% outside the plausible band around the paper's 60%%", c1024)
	}
}

func TestFig13GainsShrinkWithModelSize(t *testing.T) {
	res := runFig13()
	tab := res.Tables[0]
	g7 := parsePct(t, cell(t, tab, 6, "7B", "256", "8", "L"))
	g15 := parsePct(t, cell(t, tab, 6, "15B", "256", "8", "L"))
	if !(g7 > g15) {
		t.Fatalf("7B gain %v%% must exceed 15B gain %v%%", g7, g15)
	}
	// Paper band for 7B-L: 30-70%.
	if g7 < 20 || g7 > 85 {
		t.Fatalf("7B-L@256 gain %v%% far from the paper's 30-70%% band", g7)
	}
}

func TestFig14DCHAGFitsLargeModel(t *testing.T) {
	res := runFig14()
	tab := res.Tables[0]
	if got := cell(t, tab, 6, "TP only", "256", "8"); got != "OOM" {
		t.Fatalf("26B@256 TP=8 = %s, want OOM", got)
	}
	if got := cell(t, tab, 6, "D-CHAG-L + TP", "512", "32"); got != "fits" {
		t.Fatalf("26B@512 D-CHAG TP=32 = %s, want fits", got)
	}
	frac, _ := strconv.ParseFloat(cell(t, tab, 5, "D-CHAG-L + TP", "512", "32"), 64)
	if frac >= 0.8 {
		t.Fatalf("26B@512 D-CHAG fraction %v, paper says < 0.8", frac)
	}
}

func TestFig15DCHAGConfigsBeatBaseline(t *testing.T) {
	res := runFig15()
	tab := res.Tables[0]
	var bestBase, bestDchag float64
	for _, row := range tab.Rows {
		if row[3] == "-" {
			continue
		}
		v, _ := strconv.ParseFloat(row[3], 64)
		if strings.HasPrefix(row[0], "TP-baseline") {
			if v > bestBase {
				bestBase = v
			}
		} else if v > bestDchag {
			bestDchag = v
		}
	}
	if !(bestDchag > 1.5*bestBase) {
		t.Fatalf("best D-CHAG config %.1f TFLOPs/s/node should clearly beat best baseline %.1f", bestDchag, bestBase)
	}
}

func TestFig16HybridMoreThanDoubles(t *testing.T) {
	res := runFig16()
	tab := res.Tables[0]
	gain := parsePct(t, cell(t, tab, 3, "1024"))
	if gain < 100 {
		t.Fatalf("hybrid gain at 1024 GCDs = %v%%, paper reports >100%% (more than double)", gain)
	}
	if gain > 400 {
		t.Fatalf("hybrid gain at 1024 GCDs = %v%% is implausibly far above the paper's +239%%", gain)
	}
	// Both columns scale with GPU count.
	t16, _ := strconv.ParseFloat(cell(t, tab, 2, "16"), 64)
	t1024, _ := strconv.ParseFloat(cell(t, tab, 2, "1024"), 64)
	if !(t1024 > 30*t16) {
		t.Fatalf("hybrid throughput must scale with GPUs: %v -> %v", t16, t1024)
	}
}

func TestFig11TrainingAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment skipped in -short mode")
	}
	res := runFig11()
	tab := res.Tables[0]
	if len(tab.Rows) == 0 {
		t.Fatal("fig11 produced no rows")
	}
	// The loss at the last reported step must have decreased for both runs.
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	b0, _ := strconv.ParseFloat(first[1], 64)
	b1, _ := strconv.ParseFloat(last[1], 64)
	d0, _ := strconv.ParseFloat(first[2], 64)
	d1, _ := strconv.ParseFloat(last[2], 64)
	if !(b1 < b0 && d1 < d0) {
		t.Fatalf("losses must decrease: baseline %v->%v dchag %v->%v", b0, b1, d0, d1)
	}
	// The zero-communication note must report 0 bytes.
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "communication: 0 bytes") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fig11 notes missing zero-comm statement: %v", tab.Notes)
	}
}

func TestFig12TrainingAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment skipped in -short mode")
	}
	res := runFig12()
	loss := res.Tables[0]
	last := loss.Rows[len(loss.Rows)-1]
	base, _ := strconv.ParseFloat(last[1], 64)
	dcC, _ := strconv.ParseFloat(last[2], 64)
	dcL, _ := strconv.ParseFloat(last[3], 64)
	for _, v := range []float64{dcC, dcL} {
		rel := (v - base) / base
		if rel < -0.25 || rel > 0.25 {
			t.Fatalf("final D-CHAG loss %v too far from baseline %v", v, base)
		}
	}
	rmse := res.Tables[1]
	if len(rmse.Rows) != 3 {
		t.Fatalf("want RMSE rows for Z500/T850/U10, got %d", len(rmse.Rows))
	}
	for _, row := range rmse.Rows {
		for _, col := range []int{4, 5} {
			rel := parsePct(t, row[col])
			if rel < -30 || rel > 30 {
				t.Fatalf("%s RMSE deviation %v%% outside the reduced-scale tolerance", row[0], rel)
			}
		}
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil, 10) != "" || Sparkline([]float64{1}, 0) != "" {
		t.Fatal("degenerate inputs must render empty")
	}
	s := Sparkline([]float64{5, 4, 3, 2, 1}, 5)
	runes := []rune(s)
	if len(runes) != 5 {
		t.Fatalf("width = %d, want 5", len(runes))
	}
	if runes[0] != '█' || runes[4] != '▁' {
		t.Fatalf("monotone series should fall from full to empty block: %q", s)
	}
	// Downsampling keeps the requested width.
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i)
	}
	if got := len([]rune(Sparkline(long, 12))); got != 12 {
		t.Fatalf("downsampled width = %d, want 12", got)
	}
	// Flat series renders uniformly without dividing by zero.
	flat := Sparkline([]float64{2, 2, 2}, 3)
	if len([]rune(flat)) != 3 {
		t.Fatal("flat series must render")
	}
}

func TestMarkdownRendering(t *testing.T) {
	tab := &Table{Title: "demo", Headers: []string{"a", "b"}}
	tab.Add("1", "2")
	tab.Note("note here")
	md := tab.Markdown()
	for _, want := range []string{"#### demo", "| a | b |", "| --- | --- |", "| 1 | 2 |", "*note here*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	res := Result{ID: "figX", Title: "t", Tables: []*Table{tab}}
	if !strings.Contains(res.Markdown(), "### figX — t") {
		t.Fatal("result markdown missing heading")
	}
}

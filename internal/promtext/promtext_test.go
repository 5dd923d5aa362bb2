package promtext

import (
	"math"
	"strings"
	"testing"
)

func TestParseWellFormed(t *testing.T) {
	page := `# HELP http_requests_total Requests served.
# TYPE http_requests_total counter
http_requests_total{method="get",code="200"} 1027
http_requests_total{method="get",code="404"} 3
# TYPE queue_depth gauge
queue_depth 7
# TYPE rtt_ms gauge
rtt_ms{quantile="0.99"} 1.5e-1
`
	fams, err := Parse(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	f := fams["http_requests_total"]
	if f == nil || f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("bad counter family: %+v", f)
	}
	if f.Help != "Requests served." {
		t.Fatalf("help = %q", f.Help)
	}
	if v, ok := fams.Value("http_requests_total", map[string]string{"method": "get", "code": "200"}); !ok || v != 1027 {
		t.Fatalf("labeled lookup = %v (ok=%v)", v, ok)
	}
	if v, ok := fams.Value("queue_depth", nil); !ok || v != 7 {
		t.Fatalf("unlabeled lookup = %v (ok=%v)", v, ok)
	}
	if v, ok := fams.Value("rtt_ms", map[string]string{"quantile": "0.99"}); !ok || v != 0.15 {
		t.Fatalf("scientific value = %v (ok=%v)", v, ok)
	}
}

func TestParseEscapesAndSpecials(t *testing.T) {
	page := "# TYPE weird gauge\n" +
		`weird{path="a\\b",msg="say \"hi\"",nl="x\ny"} +Inf` + "\n" +
		"weird{path=\"other\"} NaN\n"
	fams, err := Parse(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	s := fams["weird"].Samples[0]
	if s.Labels["path"] != `a\b` || s.Labels["msg"] != `say "hi"` || s.Labels["nl"] != "x\ny" {
		t.Fatalf("unescaping wrong: %+v", s.Labels)
	}
	if !math.IsInf(s.Value, 1) {
		t.Fatalf("value = %v, want +Inf", s.Value)
	}
	if !math.IsNaN(fams["weird"].Samples[1].Value) {
		t.Fatal("NaN value not parsed")
	}
}

func TestParseSummaryChildren(t *testing.T) {
	page := `# TYPE lat summary
lat{quantile="0.5"} 1
lat_sum 10
lat_count 4
`
	fams, err := Parse(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams["lat"].Samples) != 3 {
		t.Fatalf("summary children not grouped: %+v", fams["lat"])
	}
	if v, ok := fams.Value("lat_count", nil); !ok || v != 4 {
		t.Fatalf("lat_count = %v (ok=%v)", v, ok)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":   "orphan 1\n",
		"bad metric name":      "# TYPE 9bad gauge\n9bad 1\n",
		"bad type":             "# TYPE x foo\nx 1\n",
		"bad label name":       "# TYPE x gauge\nx{9l=\"v\"} 1\n",
		"unquoted label value": "# TYPE x gauge\nx{l=v} 1\n",
		"unterminated labels":  "# TYPE x gauge\nx{l=\"v\" 1\n",
		"bad value":            "# TYPE x gauge\nx{l=\"v\"} one\n",
		"missing value":        "# TYPE x gauge\nx\n",
		"duplicate series":     "# TYPE x gauge\nx{l=\"v\"} 1\nx{l=\"v\"} 2\n",
		"duplicate label":      "# TYPE x gauge\nx{l=\"v\",l=\"w\"} 1\n",
		"conflicting TYPE":     "# TYPE x gauge\n# TYPE x counter\nx 1\n",
		"TYPE after samples":   "# TYPE x gauge\nx 1\n# TYPE x gauge\n",
		"second TYPE":          "# TYPE x gauge\n# TYPE x gauge\nx 1\n",
		"second HELP":          "# HELP h one\n# HELP h two\n# TYPE h gauge\nh 1\n",
		"second empty HELP":    "# HELP h\n# HELP h\n# TYPE h gauge\nh 1\n",
		"bad escape":           "# TYPE x gauge\nx{l=\"\\t\"} 1\n",
	}
	for name, page := range cases {
		if _, err := Parse(strings.NewReader(page)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, page)
		}
	}
}

func TestParseIgnoresBareCommentsAndBlank(t *testing.T) {
	page := "\n# just a comment\n\n# TYPE ok gauge\nok 1\n"
	fams, err := Parse(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fams.Value("ok", nil); !ok {
		t.Fatal("sample lost among comments")
	}
}

// Package promtext parses the Prometheus text exposition format
// (version 0.0.4) — the format the serve tier's /metrics endpoints
// emit. The repository hand-rolls both sides (no client_golang in the
// image), so this parser is the round-trip check: tests and the trace
// smoke scrape /metrics and fail on anything a real Prometheus server
// would reject — undeclared types, malformed names or label syntax,
// duplicate series, unparseable values.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Sample is one series sample: a metric name, its label set, and the
// scraped value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one metric family: the samples sharing a name, plus the
// HELP and TYPE declarations that preceded them.
type Family struct {
	Name    string
	Type    string // counter, gauge, summary, histogram, or untyped
	Help    string
	Samples []Sample
}

// Families is a parsed scrape, keyed by family name.
type Families map[string]*Family

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// validTypes are the TYPE values the exposition format admits.
var validTypes = map[string]bool{
	"counter": true, "gauge": true, "summary": true,
	"histogram": true, "untyped": true,
}

// Parse reads one text-format exposition. It is strict where Prometheus
// is strict: every sample's family must have a TYPE declared before its
// first sample, a family has at most one HELP and one TYPE line, names and
// labels must match the format's grammar, and no two samples may share a
// name and label set.
func Parse(r io.Reader) (Families, error) {
	fams := Families{}
	seen := map[string]bool{}   // name + sorted labels -> dup detection
	helped := map[string]bool{} // families whose HELP has been read
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(fams, helped, line); err != nil {
				return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
		}
		fam := familyOf(fams, s.Name)
		if fam == nil || fam.Type == "" {
			return nil, fmt.Errorf("promtext: line %d: sample %q before its # TYPE declaration", lineNo, s.Name)
		}
		key := seriesKey(s)
		if seen[key] {
			return nil, fmt.Errorf("promtext: line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("promtext: %w", err)
	}
	return fams, nil
}

// parseComment handles # HELP and # TYPE lines, recording in helped the
// families whose HELP it has read; other comments are ignored, as the
// format requires.
func parseComment(fams Families, helped map[string]bool, line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		name := fields[2]
		if !metricNameRe.MatchString(name) {
			return fmt.Errorf("invalid metric name %q in HELP", name)
		}
		if helped[name] {
			return fmt.Errorf("second HELP for %s", name)
		}
		helped[name] = true
		f := ensureFamily(fams, name)
		if len(fields) == 4 {
			f.Help = fields[3]
		}
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], fields[3]
		if !metricNameRe.MatchString(name) {
			return fmt.Errorf("invalid metric name %q in TYPE", name)
		}
		if !validTypes[typ] {
			return fmt.Errorf("invalid type %q for %s", typ, name)
		}
		f := ensureFamily(fams, name)
		// A family's samples follow its TYPE, so this refuses a TYPE after
		// them too.
		if f.Type != "" {
			return fmt.Errorf("second TYPE for %s: %s then %s", name, f.Type, typ)
		}
		f.Type = typ
	}
	return nil
}

// parseSample parses `name{label="value",...} value [timestamp]`.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	// Metric name runs up to '{', space, or tab.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:end]
	if !metricNameRe.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		close := findLabelsEnd(rest)
		if close < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:close], s.Labels); err != nil {
			return s, err
		}
		rest = rest[close+1:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may trail the value; take the first field as the value.
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("invalid value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

// findLabelsEnd locates the '}' closing a label set, honoring quoted,
// escaped label values.
func findLabelsEnd(rest string) int {
	inQuote, escaped := false, false
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		switch {
		case escaped:
			escaped = false
		case c == '\\' && inQuote:
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == '}' && !inQuote:
			return i
		}
	}
	return -1
}

// parseLabels parses `a="x",b="y"` into dst, unescaping \\, \", \n.
func parseLabels(body string, dst map[string]string) error {
	body = strings.TrimSpace(body)
	for body != "" {
		eq := strings.Index(body, "=")
		if eq < 0 {
			return fmt.Errorf("malformed label pair in %q", body)
		}
		name := strings.TrimSpace(body[:eq])
		if !labelNameRe.MatchString(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		body = strings.TrimSpace(body[eq+1:])
		if body == "" || body[0] != '"' {
			return fmt.Errorf("label %s value must be quoted", name)
		}
		var sb strings.Builder
		i := 1
		for ; i < len(body); i++ {
			c := body[i]
			if c == '\\' && i+1 < len(body) {
				i++
				switch body[i] {
				case 'n':
					sb.WriteByte('\n')
				case '\\', '"':
					sb.WriteByte(body[i])
				default:
					return fmt.Errorf("invalid escape \\%c in label %s", body[i], name)
				}
				continue
			}
			if c == '"' {
				break
			}
			sb.WriteByte(c)
		}
		if i >= len(body) {
			return fmt.Errorf("unterminated value for label %s", name)
		}
		if _, dup := dst[name]; dup {
			return fmt.Errorf("duplicate label %s", name)
		}
		dst[name] = sb.String()
		body = strings.TrimSpace(body[i+1:])
		if body == "" {
			break
		}
		if body[0] != ',' {
			return fmt.Errorf("expected ',' between labels, got %q", body)
		}
		body = strings.TrimSpace(body[1:])
	}
	return nil
}

// familyOf resolves the family a sample belongs to: its own name, or —
// for summary/histogram child series — the parent that declared the
// _sum/_count/_bucket suffix family.
func familyOf(fams Families, name string) *Family {
	if f, ok := fams[name]; ok {
		return f
	}
	for _, suffix := range []string{"_sum", "_count", "_bucket"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if f, ok := fams[base]; ok && (f.Type == "summary" || f.Type == "histogram") {
				return f
			}
		}
	}
	return nil
}

func ensureFamily(fams Families, name string) *Family {
	f := fams[name]
	if f == nil {
		f = &Family{Name: name}
		fams[name] = f
	}
	return f
}

// seriesKey canonicalizes a sample's identity for duplicate detection.
func seriesKey(s Sample) string {
	names := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString(s.Name)
	sb.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, s.Labels[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Value returns the sample of family name whose labels exactly match
// want (nil matches only an unlabeled sample).
func (fs Families) Value(name string, want map[string]string) (float64, bool) {
	// Child series of summaries/histograms live under the parent family.
	for _, f := range fs {
		for _, s := range f.Samples {
			if s.Name != name || len(s.Labels) != len(want) {
				continue
			}
			match := true
			for k, v := range want {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// Package experiments regenerates every figure of the paper's evaluation
// (Figs. 6-9 and 11-16) as text tables: memory-by-component studies and
// throughput projections from internal/perfmodel, and real reduced-scale
// training runs (loss-curve and RMSE comparisons) from internal/train.
//
// Each figure is an Experiment in the registry; cmd/dchag-bench and the root
// benchmark suite consume the same runners, so both print the same numbers.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a printable result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-text note rendered under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*Table
}

// String renders all tables.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Experiment is a registered figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func() Result
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns the registered experiments sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// pct formats a ratio as a signed percentage.
func pct(v float64) string { return fmt.Sprintf("%+.1f%%", 100*v) }

// gib formats bytes as GiB.
func gib(v float64) string { return fmt.Sprintf("%.1f", v/(1<<30)) }

// fitMark renders the OOM marker used across the memory tables.
func fitMark(fits bool) string {
	if fits {
		return "fits"
	}
	return "OOM"
}

// Sparkline renders values as a compact unicode bar chart (min-max scaled),
// used to show training curves inline in experiment notes.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 || width < 1 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	// Downsample to width by averaging buckets.
	sampled := make([]float64, 0, width)
	if len(values) <= width {
		sampled = values
	} else {
		for i := 0; i < width; i++ {
			lo := i * len(values) / width
			hi := (i + 1) * len(values) / width
			sum := 0.0
			for _, v := range values[lo:hi] {
				sum += v
			}
			sampled = append(sampled, sum/float64(hi-lo))
		}
	}
	lo, hi := sampled[0], sampled[0]
	for _, v := range sampled {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	out := make([]rune, len(sampled))
	for i, v := range sampled {
		idx := int((v - lo) / span * float64(len(glyphs)-1))
		out[i] = glyphs[idx]
	}
	return string(out)
}

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Chrome trace-event JSON export (the "JSON Object Format" of the Trace
// Event spec): {"traceEvents": [...], "displayTimeUnit": "ms",
// "metadata": {...}}. Spans become 'X' (complete) events, instants 'i'
// with thread scope, and each row gets an 'M' thread_name record so
// Perfetto labels the tracks. Timestamps and durations are microseconds
// relative to the tracer epoch; pid is always 0 (one process), tid is
// the row index.

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"metadata,omitempty"`
}

// WriteChromeTrace serializes the tracer's rings as Chrome trace-event
// JSON. The trace remains loadable while ranks keep recording (each
// ring is copied under its lock), but a consistent snapshot needs the
// run quiesced first.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	if t == nil {
		return fmt.Errorf("obs: cannot export nil tracer")
	}
	ct := chromeTrace{DisplayTimeUnit: "ms", Metadata: t.Meta()}
	for row := 0; row < t.Rows(); row++ {
		ct.TraceEvents = append(ct.TraceEvents, traceEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  0,
			Tid:  row,
			Args: map[string]any{"name": t.RowName(row)},
		})
	}
	for row := 0; row < t.Rows(); row++ {
		for _, ev := range t.Events(row) {
			te := traceEvent{
				Name: ev.Name,
				Cat:  ev.Cat,
				Ph:   string(ev.Ph),
				Ts:   float64(ev.Start.Nanoseconds()) / 1e3,
				Pid:  0,
				Tid:  row,
			}
			switch ev.Ph {
			case 'X':
				dur := float64(ev.Dur.Nanoseconds()) / 1e3
				te.Dur = &dur
			case 'i':
				te.S = "t" // thread-scoped instant
			}
			if ev.Bytes != 0 {
				te.Args = map[string]any{"bytes": ev.Bytes}
			}
			ct.TraceEvents = append(ct.TraceEvents, te)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ct)
}

// WriteChromeTraceFile writes the trace to path (0644).
func WriteChromeTraceFile(path string, t *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateChromeTrace checks data against the subset of the Chrome
// trace-event schema this package emits: a top-level object with a
// non-empty traceEvents array whose entries carry a name, a known phase
// ('X', 'i', or 'M'), numeric pid/tid, a numeric ts for timed phases, a
// non-negative dur for complete events, and a scope for instants; a null
// stands for none of them. train.TestHybridTraceMatchesLedger runs a
// traced training run's export through it.
func ValidateChromeTrace(data []byte) error {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return fmt.Errorf("obs: trace is not a JSON object: %w", err)
	}
	raw, ok := top["traceEvents"]
	if !ok {
		return fmt.Errorf("obs: trace has no traceEvents key")
	}
	var events []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &events); err != nil {
		return fmt.Errorf("obs: traceEvents is not an array of objects: %w", err)
	}
	if len(events) == 0 {
		return fmt.Errorf("obs: traceEvents is empty")
	}
	for i, ev := range events {
		var name string
		if err := unmarshalKey(ev, "name", &name); err != nil {
			return fmt.Errorf("obs: event %d: %w", i, err)
		}
		if name == "" {
			return fmt.Errorf("obs: event %d has an empty name", i)
		}
		var ph string
		if err := unmarshalKey(ev, "ph", &ph); err != nil {
			return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
		}
		var pid, tid float64
		if err := unmarshalKey(ev, "pid", &pid); err != nil {
			return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
		}
		if err := unmarshalKey(ev, "tid", &tid); err != nil {
			return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
		}
		switch ph {
		case "M":
			// Metadata records carry no timestamp.
		case "X":
			var ts, dur float64
			if err := unmarshalKey(ev, "ts", &ts); err != nil {
				return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
			}
			if err := unmarshalKey(ev, "dur", &dur); err != nil {
				return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
			}
			if dur < 0 {
				return fmt.Errorf("obs: event %d (%s) has negative dur %v", i, name, dur)
			}
		case "i":
			var ts float64
			if err := unmarshalKey(ev, "ts", &ts); err != nil {
				return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
			}
			var scope string
			if err := unmarshalKey(ev, "s", &scope); err != nil {
				return fmt.Errorf("obs: event %d (%s): %w", i, name, err)
			}
			switch scope {
			case "t", "p", "g":
			default:
				return fmt.Errorf("obs: event %d (%s) has invalid instant scope %q", i, name, scope)
			}
		default:
			return fmt.Errorf("obs: event %d (%s) has unsupported phase %q", i, name, ph)
		}
	}
	return nil
}

// unmarshalKey decodes ev[key] into dst. A null is refused like a missing
// key: decoding it into a Go value is a no-op, which would leave dst zero.
func unmarshalKey[T any](ev map[string]json.RawMessage, key string, dst *T) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %q", key)
	}
	if string(bytes.TrimSpace(raw)) == "null" {
		return fmt.Errorf("null %q", key)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("invalid %q: %w", key, err)
	}
	return nil
}

package obs

import (
	"encoding/json"
	"testing"
)

// FuzzValidateChromeTrace feeds the validator arbitrary bytes: it returns an
// error or nil and never panics, and every event of a trace it accepts
// carries numbers where the schema wants them — pid and tid, ts on timed
// events, dur on complete ones. The seeds in
// testdata/fuzz/FuzzValidateChromeTrace are an exported trace, an event whose
// numbers are all null (which the validator once accepted) and a negative
// duration.
func FuzzValidateChromeTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if ValidateChromeTrace(data) != nil {
			return
		}
		var top map[string]json.RawMessage
		var events []map[string]any
		if err := json.Unmarshal(data, &top); err != nil {
			t.Fatalf("accepted a trace that is not an object: %v", err)
		}
		if err := json.Unmarshal(top["traceEvents"], &events); err != nil {
			t.Fatalf("accepted traceEvents that are not objects: %v", err)
		}
		for i, ev := range events {
			keys := []string{"pid", "tid"}
			switch ev["ph"] {
			case "X":
				keys = append(keys, "ts", "dur")
			case "i":
				keys = append(keys, "ts")
			}
			for _, k := range keys {
				if _, ok := ev[k].(float64); !ok {
					t.Fatalf("accepted event %d with %s = %#v", i, k, ev[k])
				}
			}
		}
	})
}

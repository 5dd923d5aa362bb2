package promtext

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse feeds Parse arbitrary bytes: it returns an error or families
// whose every sample is typed and filed under its own family or, for a
// summary or histogram, under the parent of its _sum, _count or _bucket
// series — never a panic. The seeds in testdata/fuzz/FuzzParse are a serving
// engine's /metrics page, a second HELP for one family (which Parse once
// accepted) and a summary with its child series.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, page []byte) {
		fams, err := Parse(bytes.NewReader(page))
		if err != nil {
			return
		}
		for name, fam := range fams {
			if len(fam.Samples) > 0 && !validTypes[fam.Type] {
				t.Fatalf("family %s has samples and type %q", name, fam.Type)
			}
			for _, s := range fam.Samples {
				if s.Name == name {
					continue
				}
				base, child := "", false
				for _, suffix := range []string{"_sum", "_count", "_bucket"} {
					if b, ok := strings.CutSuffix(s.Name, suffix); ok && b == name {
						base, child = b, true
					}
				}
				if !child || (fam.Type != "summary" && fam.Type != "histogram") {
					t.Fatalf("sample %s filed under %s (%s), parent %q", s.Name, name, fam.Type, base)
				}
			}
		}
	})
}

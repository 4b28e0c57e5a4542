//go:build !race

// The tables take about 3 s, and some 40 s under the race detector, so
// `make test` (go test -race) skips them; plain `go test ./...` runs
// them.

package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickPaperTables: the -quick runs of the experiments that print
// solution sizes and node accesses of the selection and zoom
// algorithms (Table 3, Figures 6–8, 10–16, the Fast-C and bottom-up
// ablations) print exactly the tables in testdata/quick. Their columns
// are deterministic, so any change to a pick, a pick order or an
// access charge shows here as a diff. To re-record after an intended
// change, write `discbench -exp X -quick` into testdata/quick/X.txt,
// without its closing "done in" timing line.
func TestQuickPaperTables(t *testing.T) {
	for _, name := range []string{"table3", "fig6", "fig7", "fig8", "fig10", "fastc", "bottomup", "zoomin", "zoomout"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "quick", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			cfg := DefaultConfig()
			cfg.Quick = true
			cfg.Out = &got
			if err := Run(name, cfg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("-quick %s output differs from testdata:\n got:\n%s\nwant:\n%s", name, got.Bytes(), want)
			}
		})
	}
}

package experiments

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/figures_quick.csv")

// TestGoldenFigures renders every registered experiment the way
// `hrmc-figures -quick -seeds 1 -format csv` does and compares the result
// with the checked-in copy: the simulator is deterministic, so a change
// to a protocol machine that claims "same behaviour" either leaves this
// file alone or says which cells it moved (go test -update rewrites it).
func TestGoldenFigures(t *testing.T) {
	var got bytes.Buffer
	for _, r := range Registry() {
		for _, tb := range r.Run(quick()) {
			got.WriteString(tb.FormatCSV())
			got.WriteByte('\n')
		}
	}
	const path = "testdata/figures_quick.csv"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("figures differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("figures differ from %s: %d lines, want %d", path, len(gl), len(wl))
}

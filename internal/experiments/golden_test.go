package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the body of RESULTS.md from the current code")

const (
	resultsPath = "../../RESULTS.md"
	// resultsHeaderLines is the prose at the top of RESULTS.md (title,
	// how to regenerate, blank line). It is skipped by position; everything
	// below it must be the rendering of All().
	resultsHeaderLines = 6
	// trackedClaims is the size of the scorecard EXPERIMENTS.md reports.
	trackedClaims = 13
)

// TestGoldenScorecard: every tracked paper claim reproduces.
func TestGoldenScorecard(t *testing.T) {
	tab, failed, err := RunScorecard()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != trackedClaims {
		t.Errorf("scorecard tracks %d claims, want %d", len(tab.Rows), trackedClaims)
	}
	if len(failed) > 0 {
		t.Errorf("claims no longer reproduced: %v\n%s", failed, tab.Render())
	}
}

// TestGoldenResultsMD: RESULTS.md below its header is byte-for-byte the
// Markdown rendering of every experiment in paper order, so a model or
// hardware-constant edit that moves a paper number fails here with the
// rows it moved. Regenerate on purpose with `make results-md`.
func TestGoldenResultsMD(t *testing.T) {
	var b strings.Builder
	for _, e := range All() {
		tabs, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		for _, tab := range tabs {
			b.WriteString(tab.Markdown())
			b.WriteByte('\n')
		}
	}
	want := b.String()

	raw, err := os.ReadFile(resultsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfterN(string(raw), "\n", resultsHeaderLines+1)
	if len(lines) != resultsHeaderLines+1 {
		t.Fatalf("%s has no body below its %d header lines", resultsPath, resultsHeaderLines)
	}
	header, got := strings.Join(lines[:resultsHeaderLines], ""), lines[resultsHeaderLines]
	if got == want {
		return
	}
	if *update {
		if err := os.WriteFile(resultsPath, []byte(header+want), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", resultsPath)
		return
	}
	t.Errorf("%s is not what the code renders (regenerate with `make results-md`):\n%s",
		resultsPath, lineDiff(got, want))
}

// lineDiff lists the lines that differ between two renderings under the
// table heading they belong to, pairing lines by position (a moved number
// keeps the row count).
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	if len(g) != len(w) {
		fmt.Fprintf(&b, "line count: file %d, rendered %d\n", len(g), len(w))
	}
	heading, printed, shown := "", "", 0
	for i := 0; i < len(g) && i < len(w); i++ {
		if strings.HasPrefix(w[i], "### ") {
			heading = w[i]
		}
		if g[i] == w[i] {
			continue
		}
		if shown++; shown > 40 {
			b.WriteString("…\n")
			break
		}
		if heading != printed {
			fmt.Fprintf(&b, "%s\n", heading)
			printed = heading
		}
		fmt.Fprintf(&b, "  line %d\n    file:     %s\n    rendered: %s\n", resultsHeaderLines+i+1, g[i], w[i])
	}
	return b.String()
}

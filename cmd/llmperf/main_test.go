package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current output")

// goldenRuns are the local-mode invocations whose exit code, stdout and
// stderr testdata/golden.txt records: every platform, memory mode and
// clustering mode, core counts, the roofline breakdown, and the errors.
var goldenRuns = [][]string{
	nil,
	{"-platform", "icl"},
	{"-platform", "icl", "-cores", "16"},
	{"-platform", "icl", "-memmode", "cache"},
	{"-platform", "icl", "-cluster", "snc"},
	{"-platform", "a100"},
	{"-platform", "a100", "-model", "OPT-66B"},
	{"-platform", "h100", "-model", "OPT-66B", "-in", "512"},
	{"-platform", "gh200", "-model", "LLaMA2-70B"},
	{"-platform", "h100", "-cores", "8"},
	{"-platform", "h100", "-memmode", "cache"},
	{"-memmode", "flat"},
	{"-memmode", "cache"},
	{"-memmode", "hbm-only"},
	{"-memmode", "ddr"},
	{"-cluster", "snc"},
	{"-cores", "24"},
	{"-cores", "96", "-cluster", "snc", "-memmode", "cache", "-model", "LLaMA2-13B"},
	{"-model", "OPT-30B", "-batch", "4", "-ops"},
	{"-platform", "tpu"},
	{"-model", "GPT-5"},
	{"-cores", "200"},
	{"-memmode", "weird"},
	{"-cluster", "weird"},
	{"-memmode", "hbm-only", "-model", "LLaMA2-70B"},
	{"-platform", "h100", "-trace", "unused.json"},
	{"-bogus"},
}

// TestGolden: each invocation exits, prints and complains exactly as
// recorded. `make wire-golden` rewrites the file (on purpose only).
func TestGolden(t *testing.T) {
	var got strings.Builder
	for _, args := range goldenRuns {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		fmt.Fprintf(&got, "$ llmperf %s\nexit %d\n%s", strings.Join(args, " "), code, stdout.String())
		if stderr.Len() > 0 {
			fmt.Fprintf(&got, "--- stderr\n%s", stderr.String())
		}
		got.WriteString("\n")
	}
	checkGolden(t, "testdata/golden.txt", got.String())
}

// checkGolden compares got with the file at path (or rewrites it under
// -update) and reports the first differing line with its invocation.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(g) && i < len(w); i++ {
		if strings.HasPrefix(w[i], "$ ") {
			section = w[i]
		}
		if g[i] != w[i] {
			t.Fatalf("%s differs at line %d (%s):\n  recorded: %s\n  printed:  %s", path, i+1, section, w[i], g[i])
		}
	}
	t.Fatalf("%s: printed %d lines, recorded %d", path, len(g), len(w))
}

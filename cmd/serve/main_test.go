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

// goldenRuns are the invocations whose exit code, stdout and stderr
// testdata/golden.txt records: every platform and policy, the load and
// batch knobs, and the errors.
var goldenRuns = [][]string{
	nil,
	{"-platform", "icl"},
	{"-platform", "a100"},
	{"-platform", "h100", "-model", "OPT-66B"},
	{"-platform", "gh200", "-model", "OPT-66B"},
	{"-policy", "fcfs"},
	{"-policy", "static", "-batch", "16", "-wait", "0.5"},
	{"-policy", "chunked", "-model", "OPT-13B", "-n", "48"},
	{"-rate", "4", "-n", "64", "-seed", "7"},
	{"-platform", "tpu"},
	{"-model", "GPT-5"},
	{"-policy", "weird"},
	{"-bogus"},
}

// TestGolden: each invocation exits, prints and complains exactly as
// recorded. `make wire-golden` rewrites the file (on purpose only).
func TestGolden(t *testing.T) {
	var got strings.Builder
	for _, args := range goldenRuns {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		fmt.Fprintf(&got, "$ serve %s\nexit %d\n%s", strings.Join(args, " "), code, stdout.String())
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

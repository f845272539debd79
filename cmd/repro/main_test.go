package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ from the current output")

// goldenRuns are the invocations whose stdout is recorded under testdata/:
// every subcommand at default flags and with flags set. The files were
// first written by the six single-purpose binaries this command replaced.
var goldenRuns = []struct {
	file string
	args []string
}{
	{"figures.default.txt", []string{"figures"}},
	{"figures.flags.txt", []string{"figures", "-exp", "opt-spec", "-markdown"}},
	{"figures.list.txt", []string{"figures", "-list"}},
	{"scorecard.default.txt", []string{"scorecard"}},
	{"scorecard.flags.txt", []string{"scorecard", "-v"}},
	{"calibrate.default.txt", []string{"calibrate"}},
	{"calibrate.flags.txt", []string{"calibrate", "-steps", "5", "-lo", "0.8", "-hi", "1.2"}},
	{"sweep.default.txt", []string{"sweep"}},
	{"sweep.flags.txt", []string{"sweep", "-platforms", "spr,h100", "-models", "OPT-30B,OPT-66B",
		"-batches", "1,16", "-inputs", "128,1024", "-out", "16"}},
	{"modelinfo.default.txt", []string{"modelinfo"}},
	{"modelinfo.flags.txt", []string{"modelinfo", "-model", "LLaMA2-70B", "-batch", "16", "-in", "512"}},
	{"autotune.default.txt", []string{"autotune"}},
	{"autotune.flags.txt", []string{"autotune", "-model", "OPT-30B", "-objective", "throughput",
		"-batch", "8", "-max-ttft", "2", "-top", "3"}},
}

// TestGoldenStdout: each subcommand prints, byte for byte, the recorded
// output. A model or hardware-constant edit that moves a number fails
// here as well as in internal/experiments; `make results-md` rewrites both.
func TestGoldenStdout(t *testing.T) {
	for _, tc := range goldenRuns {
		t.Run(tc.file, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 || stderr.Len() > 0 {
				t.Fatalf("repro %v: exit %d, stderr %q", tc.args, code, stderr.String())
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(stdout.Bytes(), want) {
				return
			}
			got, rec := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(got) && i < len(rec); i++ {
				if got[i] != rec[i] {
					t.Fatalf("repro %v differs from %s at line %d:\n  recorded: %s\n  printed:  %s",
						tc.args, path, i+1, rec[i], got[i])
				}
			}
			t.Fatalf("repro %v prints %d lines, %s has %d", tc.args, len(got), path, len(rec))
		})
	}
}

// TestExitCodes: misuse exits 2 with usage on stderr, a runtime error
// exits 1 with a message, and neither writes to stdout.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"no subcommand", nil, 2, "usage: repro <subcommand>"},
		{"unknown subcommand", []string{"plot"}, 2, `unknown subcommand "plot"`},
		{"unknown subcommand lists usage", []string{"plot"}, 2, "usage: repro <subcommand>"},
		{"bad flag", []string{"sweep", "-bogus"}, 2, "Usage of repro sweep"},
		{"bad flag value", []string{"calibrate", "-steps", "many"}, 2, "Usage of repro calibrate"},
		{"unknown experiment", []string{"figures", "-exp", "fig99"}, 1, "unknown key"},
		{"unknown platform", []string{"sweep", "-platforms", "tpu"}, 1, "unknown platform"},
		{"unknown model", []string{"modelinfo", "-model", "GPT-5"}, 1, "GPT-5"},
		{"bad int list", []string{"sweep", "-batches", "1,x"}, 1, "invalid syntax"},
		{"unknown objective", []string{"autotune", "-objective", "cheapest"}, 1, "unknown objective"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d", code, tc.code)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.stderr)
			}
			if stdout.Len() > 0 {
				t.Errorf("stdout not empty: %q", stdout.String())
			}
		})
	}
}

// TestHelpExitsZero: -h prints the subcommand's flags and succeeds, as the
// single-purpose binaries did.
func TestHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"autotune", "-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("exit %d, want 0", code)
	}
	if !strings.Contains(stderr.String(), "-max-ttft") {
		t.Errorf("help lacks the flag list: %q", stderr.String())
	}
}

// Command repro is the paper reproduction's one entry point: every table,
// figure, claim and calibration audit behind RESULTS.md and EXPERIMENTS.md.
//
// Usage:
//
//	repro figures                  # every experiment in paper order
//	repro figures -exp fig18       # one experiment (-list for the keys, -markdown for RESULTS.md's format)
//	repro scorecard [-v]           # PASS/FAIL over every tracked paper claim; exits 1 on any FAIL
//	repro calibrate                # anchor audit + per-knob loss curves
//	repro sweep -platforms spr,h100 -models OPT-30B -batches 1,16 > results.csv
//	repro modelinfo -model LLaMA2-70B -batch 16 -in 512
//	repro autotune -model LLaMA2-13B -objective throughput -max-ttft 0.5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/model"
)

// subcommands in the order usage lists them. Each run parses its own
// flags from args and returns the process exit code.
var subcommands = []struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}{
	{"figures", "regenerate the paper's tables and figures as text", runFigures},
	{"scorecard", "PASS/FAIL report over every tracked paper claim", runScorecard},
	{"calibrate", "anchor audit and per-knob calibration loss curves", runCalibrate},
	{"sweep", "CSV sweep over platform × model × batch × input length", runSweep},
	{"modelinfo", "analytic model properties: parameters, footprints, FLOPs, KV demand", runModelInfo},
	{"autotune", "search SPR cores × memory mode × clustering × batch for an objective", runAutotune},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, sc := range subcommands {
			if sc.name == args[0] {
				return sc.run(args[1:], stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "repro: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: repro <subcommand> [flags]")
	for _, sc := range subcommands {
		fmt.Fprintf(stderr, "  %-10s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintln(stderr, "run `repro <subcommand> -h` for its flags")
	return 2
}

// parseFlags parses one subcommand's flags, sending usage and parse errors
// to stderr. done reports that the subcommand should exit with code now
// (0 after -h, 2 after a bad flag).
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, done bool) {
	fs.SetOutput(stderr)
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, false
	case errors.Is(err, flag.ErrHelp):
		return 0, true
	default:
		return 2, true
	}
}

// fail reports a subcommand's runtime error.
func fail(stderr io.Writer, name string, err error) int {
	fmt.Fprintf(stderr, "repro %s: %v\n", name, err)
	return 1
}

// parseModels resolves comma-separated model presets; an empty list means
// the eight models the paper evaluates.
func parseModels(list string) ([]model.Config, error) {
	if list == "" {
		return model.Evaluated(), nil
	}
	var out []model.Config
	for _, name := range strings.Split(list, ",") {
		m, err := model.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// parseInts parses a comma-separated integer list.
func parseInts(list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

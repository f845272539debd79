package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/calibrate"
)

func runCalibrate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro calibrate", flag.ContinueOnError)
	lo := fs.Float64("lo", 0.6, "lowest knob factor")
	hi := fs.Float64("hi", 1.4, "highest knob factor")
	steps := fs.Int("steps", 9, "sweep points per knob")
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}

	env := calibrate.DefaultEnv()
	fmt.Fprintln(stdout, "anchor audit (shipped constants):")
	fmt.Fprintf(stdout, "  %-40s %10s %10s %8s\n", "anchor", "target", "measured", "error")
	for _, a := range calibrate.Anchors() {
		got, err := a.Measure(env)
		if err != nil {
			return fail(stderr, "calibrate", err)
		}
		fmt.Fprintf(stdout, "  %-40s %10.3g %10.3g %7.1f%%\n",
			a.Name, a.Target, got, (got-a.Target)/a.Target*100)
	}
	base, err := calibrate.Loss(env)
	if err != nil {
		return fail(stderr, "calibrate", err)
	}
	fmt.Fprintf(stdout, "\ntotal loss (Σ squared relative error): %.4f\n\n", base)

	fmt.Fprintln(stdout, "knob sweeps (loss vs multiplicative factor; '*' marks the shipped 1.0):")
	for _, k := range calibrate.Knobs() {
		pts, err := calibrate.SweepKnob(k, *lo, *hi, *steps)
		if err != nil {
			return fail(stderr, "calibrate", err)
		}
		maxLoss := 0.0
		for _, p := range pts {
			maxLoss = math.Max(maxLoss, p.Loss)
		}
		fmt.Fprintf(stdout, "  %-18s", k.Name)
		for _, p := range pts {
			mark := strings.Repeat("#", int(p.Loss/(maxLoss+1e-12)*6)+1)
			if math.Abs(p.Factor-1) < 1e-9 {
				mark = "*" + mark
			}
			fmt.Fprintf(stdout, " %6s", mark)
		}
		fmt.Fprintf(stdout, "\n  %-18s", "")
		for _, p := range pts {
			fmt.Fprintf(stdout, " %6.2f", p.Factor)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

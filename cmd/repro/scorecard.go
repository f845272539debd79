package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/experiments"
)

func runScorecard(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro scorecard", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print full claim statements")
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}

	tab, failed, err := experiments.RunScorecard()
	if err != nil {
		return fail(stderr, "scorecard", err)
	}
	fmt.Fprintln(stdout, tab.Render())
	if *verbose {
		for _, c := range experiments.Scorecard() {
			fmt.Fprintf(stdout, "%-16s %s\n", c.ID+":", c.Statement)
		}
	}
	fmt.Fprintf(stdout, "\n%d/%d claims reproduced\n", len(tab.Rows)-len(failed), len(tab.Rows))
	if len(failed) > 0 {
		return 1
	}
	return 0
}

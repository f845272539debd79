package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/experiments"
)

func runFigures(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro figures", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment key (e.g. fig18, table1); empty = all")
	list := fs.Bool("list", false, "list experiment keys and exit")
	markdown := fs.Bool("markdown", false, "render tables as GitHub Markdown")
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Fprintf(stdout, "%-10s %s\n", e.Key, e.Title)
		}
		return 0
	}
	if *exp != "" {
		e, err := experiments.ByKey(*exp)
		if err != nil {
			return fail(stderr, "figures", err)
		}
		all = []experiments.Experiment{e}
	}
	for _, e := range all {
		tabs, err := e.Run()
		if err != nil {
			return fail(stderr, "figures", fmt.Errorf("%s: %w", e.Key, err))
		}
		for _, t := range tabs {
			if *markdown {
				fmt.Fprintln(stdout, t.Markdown())
			} else {
				fmt.Fprintln(stdout, t.Render())
			}
		}
	}
	return 0
}

// Command scorecard evaluates every tracked paper claim against the
// simulator and prints a PASS/FAIL reproduction report — the programmatic
// counterpart of EXPERIMENTS.md.
//
// Usage:
//
//	scorecard        # evaluate all claims
//	scorecard -v     # include each claim's full statement
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	verbose := flag.Bool("v", false, "print full claim statements")
	flag.Parse()

	tab, failed, err := experiments.RunScorecard()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scorecard:", err)
		os.Exit(1)
	}
	fmt.Println(tab.Render())
	if *verbose {
		for _, c := range experiments.Scorecard() {
			fmt.Printf("%-16s %s\n", c.ID+":", c.Statement)
		}
	}
	fmt.Printf("\n%d/%d claims reproduced\n", len(tab.Rows)-len(failed), len(tab.Rows))
	if len(failed) > 0 {
		os.Exit(1)
	}
}

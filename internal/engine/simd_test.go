package engine

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/kernels"
)

// -simd runs the whole package with the kernels held to a lower SIMD level
// than the host's, as in internal/kernels, so the golden tokens and logits
// hashes are checked at every level (`make kernels-portable`):
//
//	go test ./internal/engine/ -run TestGoldenTokens -args -simd=generic
//
// A level above the host's is clamped to it. -generic is -simd=generic.
var (
	forceSIMD    = flag.String("simd", "", "run every test at this SIMD level (kernels.LimitSIMD), at most the host's")
	forceGeneric = flag.Bool("generic", false, "run every test on the generic Go kernels (-simd=generic)")
)

func TestMain(m *testing.M) {
	flag.Parse()
	if *forceGeneric {
		*forceSIMD = "generic"
	}
	if *forceSIMD != "" {
		if err := kernels.LimitSIMD(*forceSIMD); err != nil {
			fmt.Fprintln(os.Stderr, "-simd:", err)
			os.Exit(2)
		}
	}
	os.Exit(m.Run())
}

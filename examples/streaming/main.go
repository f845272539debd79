// Streaming: drive the functional engine through its token-streaming API
// — the delivery mode interactive services use, where TTFT (§II-C) is the
// time until the first streamed token appears. Tokens decode to printable
// text live, and a perplexity evaluation compares the FP32 and AMX-style
// BF16 execution paths on the same sequence (the accuracy side of the
// paper's BF16 hardware story).
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/texttoken"
)

func main() {
	eng, err := core.TinyEngine("opt", engine.KernelTileBF16)
	if err != nil {
		log.Fatal(err)
	}
	prompt, err := texttoken.Encode("The CPU said: ")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== streaming generation (tiny OPT, AMX-style BF16 tiles) ==")
	fmt.Print("tokens as they arrive: ")
	start := time.Now()
	var firstTok time.Duration
	out, _, err := eng.GenerateWith([][]int{prompt}, engine.GenerateOptions{MaxNew: 16,
		OnToken: func(seq, step, tok int) bool {
			if step == 0 {
				firstTok = time.Since(start)
			}
			if s, err := texttoken.Decode([]int{tok}); err == nil && s != "" {
				fmt.Print(s)
			} else {
				fmt.Print("·")
			}
			return true
		}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured TTFT %.2fms for %d streamed tokens\n\n",
		firstTok.Seconds()*1e3, len(out[0]))

	// Perplexity across numeric paths on the same sequence.
	fmt.Println("== perplexity across execution paths (same weights) ==")
	seq := append(append([]int{}, prompt...), out[0]...)
	for _, k := range []engine.Kernel{engine.KernelBlocked, engine.KernelTileBF16} {
		e2, err := core.TinyEngine("opt", k)
		if err != nil {
			log.Fatal(err)
		}
		res, err := e2.Perplexity(seq)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s perplexity %.3f (avg logprob %.3f over %d tokens)\n",
			k, res.Perplexity, res.AvgLogProb, res.Tokens)
	}
	fmt.Println("\nThe BF16 path tracks the FP32 reference closely — the accuracy")
	fmt.Println("precondition for the paper's AMX-BF16 performance results.")
}

package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// Simulate OPT-30B on the SPR Max CPU in its best configuration.
func ExampleSimulateCPU() {
	res, err := core.SimulateCPU(core.SPRQuadFlat(48), core.MustModel("OPT-30B"), 1, 128, 32)
	if err != nil {
		panic(err)
	}
	fmt.Printf("TPOT %.0f ms, throughput %.1f tokens/s\n",
		res.Latency.TPOT*1e3, res.Throughput.E2E)
	// Output: TPOT 124 ms, throughput 8.0 tokens/s
}

// Offloading engages automatically for models beyond GPU memory.
func ExampleSimulateGPU() {
	res, err := core.SimulateGPU(core.A100(), core.MustModel("OPT-30B"), 1, 128, 32)
	if err != nil {
		panic(err)
	}
	fmt.Printf("offloaded: %v, PCIe share %.0f%%\n",
		res.TransferSeconds > 0, res.PCIeFraction()*100)
	// Output: offloaded: true, PCIe share 96%
}

// The functional engine generates real tokens at tiny scale.
func ExampleTinyEngine() {
	eng, err := core.TinyEngine("opt", engine.KernelTileBF16)
	if err != nil {
		panic(err)
	}
	out, _, err := eng.Generate([][]int{core.Prompt(eng, 8, 1)}, 4)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(out[0]), "tokens generated")
	// Output: 4 tokens generated
}

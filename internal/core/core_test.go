package core

import (
	"testing"

	"repro/internal/engine"
)

func TestSimulateCPU(t *testing.T) {
	res, err := SimulateCPU(SPRQuadFlat(0), MustModel("OPT-13B"), 1, 128, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.E2E <= 0 || res.Throughput.E2E <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

func TestSimulateGPUAutoOffload(t *testing.T) {
	resident, err := SimulateGPU(H100(), MustModel("OPT-13B"), 1, 128, 32)
	if err != nil {
		t.Fatal(err)
	}
	if resident.TransferSeconds != 0 {
		t.Error("resident run must not report PCIe stalls")
	}
	offloaded, err := SimulateGPU(H100(), MustModel("OPT-66B"), 1, 128, 32)
	if err != nil {
		t.Fatal(err)
	}
	if offloaded.TransferSeconds <= 0 {
		t.Error("oversized model must engage offloading")
	}
}

func TestModels(t *testing.T) {
	if _, err := ModelByName("nope"); err == nil {
		t.Error("unknown model must error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustModel must panic on typo")
		}
	}()
	MustModel("nope")
}

func TestSetups(t *testing.T) {
	if SPRQuadFlat(0).Cores != 48 || SPRQuadFlat(24).Cores != 24 {
		t.Error("SPRQuadFlat cores wrong")
	}
	if ICLBaseline().CPU.HasAMX() {
		t.Error("ICL baseline must not have AMX")
	}
}

func TestTinyEngine(t *testing.T) {
	for _, fam := range []string{"opt", "llama"} {
		e, err := TinyEngine(fam, engine.KernelTileBF16)
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := e.Generate([][]int{Prompt(e, 8, 1)}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(out[0]) != 4 || stats.TTFT() <= 0 {
			t.Errorf("%s: generation broken", fam)
		}
	}
	if _, err := TinyEngine("gpt", engine.KernelBlocked); err == nil {
		t.Error("unknown family must error")
	}
	if e, err := TinyEngine("opt", engine.KernelInt8); err != nil || e == nil {
		t.Errorf("int8 tiny engine must auto-quantize: %v", err)
	}
}

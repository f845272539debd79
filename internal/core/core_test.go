package core

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/memsim"
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

func TestResolve(t *testing.T) {
	for _, c := range []struct {
		platform, mem, cluster string
		cores                  int
		want                   CPUSetup
	}{
		// Zero values are the paper's configuration: one full socket.
		{"spr", "", "", 0, SPRQuadFlat(0)},
		{"icl", "", "", 0, ICLBaseline()},
		// Flat mode on a CPU without HBM is its DDR-only configuration.
		{"icl", "flat", "", 0, ICLBaseline()},
		{"icl", "ddr", "snc", 64, CPUSetup{CPU: hw.ICL8352Y, Cores: 64, Mem: memsim.DDROnly, Cluster: memsim.SNC4}},
		{"spr", "hbm-only", "snc", 96, CPUSetup{CPU: hw.SPRMax9468, Cores: 96, Mem: memsim.HBMOnly, Cluster: memsim.SNC4}},
	} {
		got, err := Resolve(c.platform, c.cores, c.mem, c.cluster)
		if err != nil || got.Setup != c.want || got.Entry.Key != c.platform {
			t.Errorf("Resolve(%s, %d, %q, %q) = %+v, %v; want %+v", c.platform, c.cores, c.mem, c.cluster,
				got.Setup, err, c.want)
		}
	}
	if got, err := Resolve("h100", 0, "", ""); err != nil || got.Entry.GPU == nil || got.Entry.GPU.Name != H100().Name {
		t.Errorf("Resolve(h100) = %+v, %v", got, err)
	}
	if _, err := Resolve("tpu", 0, "", ""); !errors.Is(err, hw.ErrUnknownPlatform) {
		t.Errorf("unknown platform: %v, want hw.ErrUnknownPlatform", err)
	}
	for _, bad := range []struct {
		platform, mem, cluster string
		cores                  int
	}{
		{"spr", "", "", 97}, {"spr", "", "", -1}, {"icl", "cache", "", 0}, {"icl", "hbm-only", "", 0},
		{"spr", "weird", "", 0}, {"spr", "", "weird", 0},
		{"a100", "", "", 8}, {"a100", "flat", "", 0}, {"h100", "", "quad", 0},
	} {
		if _, err := Resolve(bad.platform, bad.cores, bad.mem, bad.cluster); err == nil {
			t.Errorf("Resolve(%+v) must fail", bad)
		}
	}
}

func TestTargetSimulate(t *testing.T) {
	m := MustModel("OPT-66B")
	for _, key := range []string{"spr", "icl", "a100", "gh200"} {
		tg, err := Resolve(key, 0, "", "")
		if err != nil {
			t.Fatal(err)
		}
		got, err := tg.Simulate(m, 1, 128, 32)
		if err != nil {
			t.Fatal(err)
		}
		var want Result
		if tg.Entry.Kind == hw.GPUPlatform {
			want, err = SimulateGPU(*tg.Entry.GPU, m, 1, 128, 32)
		} else {
			want, err = SimulateCPU(tg.Setup, m, 1, 128, 32)
		}
		if err != nil || got.Latency != want.Latency {
			t.Errorf("%s: Simulate %+v, direct %+v (%v)", key, got.Latency, want.Latency, err)
		}
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
}

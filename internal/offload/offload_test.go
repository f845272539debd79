package offload

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

func run(g hw.GPU, m model.Config, batch int) Run {
	return Run{GPU: g, Host: hw.SPRMax9468, Model: m, Batch: batch,
		InputLen: 128, OutputLen: 32, Weights: tensor.BF16}
}

func cpuResult(t *testing.T, m model.Config, batch int) metrics.Result {
	t.Helper()
	r := perfmodel.CPURun{
		Model: m,
		Setup: memsim.Config{CPU: hw.SPRMax9468, Cores: 48, Mem: memsim.Flat, Cluster: memsim.Quad},
		Batch: batch, InputLen: 128, OutputLen: 32, Weights: tensor.BF16,
	}
	res, err := r.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustSim(t *testing.T, r Run) metrics.Result {
	t.Helper()
	res, err := r.Simulate()
	if err != nil {
		t.Fatalf("%s on %s: %v", r.Model.Name, r.GPU.Name, err)
	}
	return res
}

func TestPlanPolicy(t *testing.T) {
	// OPT-13B (26 GB) fits on A100-40GB: nothing streams.
	p := run(hw.A100, model.OPT13B, 1).Plan()
	if p.StreamedGB != 0 || p.ResidentFraction != 1 {
		t.Errorf("OPT-13B on A100 should be fully resident: %+v", p)
	}
	// OPT-30B (60 GB) on A100 at batch 1: latency config pins all weights
	// host-side.
	p = run(hw.A100, model.OPT30B, 1).Plan()
	if p.ResidentGB != 0 || p.StreamedGB < 55 {
		t.Errorf("OPT-30B on A100 b=1 should stream everything: %+v", p)
	}
	// At batch 16 the policy packs free GPU memory with weights.
	p16 := run(hw.A100, model.OPT30B, 16).Plan()
	if p16.ResidentGB <= 0 || p16.ResidentGB >= p16.WeightsGB {
		t.Errorf("OPT-30B on A100 b=16 should be partially resident: %+v", p16)
	}
	if p16.StreamedGB >= p.StreamedGB {
		t.Error("batched plan must stream less than the batch-1 plan")
	}
	if !p.KVOnHost || !p16.KVOnHost {
		t.Error("KV cache must stay host-side")
	}
}

// TestNeeded: a plan streams weights exactly when they exceed free GPU
// memory.
func TestNeeded(t *testing.T) {
	needed := func(r Run) bool { return r.Plan().StreamedGB > 0 }
	if !needed(run(hw.A100, model.OPT30B, 1)) {
		t.Error("OPT-30B on A100 needs offloading")
	}
	if needed(run(hw.H100, model.OPT30B, 1)) {
		t.Error("OPT-30B fits on H100-80GB")
	}
	if !needed(run(hw.H100, model.OPT66B, 1)) {
		t.Error("OPT-66B on H100 needs offloading")
	}
}

// TestOPT30BA100Anchor pins the paper's headline Fig 17 result: for
// OPT-30B at batch 1, the SPR CPU cuts latency ~92.1 % vs the offloading
// A100 (12.7× throughput).
func TestOPT30BA100Anchor(t *testing.T) {
	gpu := mustSim(t, run(hw.A100, model.OPT30B, 1))
	cpu := cpuResult(t, model.OPT30B, 1)
	speedup := gpu.Latency.E2E / cpu.Latency.E2E
	if speedup < 9 || speedup > 16 {
		t.Errorf("CPU speedup over A100+offload = %.1fx, paper 12.7x "+
			"(gpu %.1fs cpu %.1fs)", speedup, gpu.Latency.E2E, cpu.Latency.E2E)
	}
}

// TestOPT66BH100Anchor pins the second Fig 17 anchor: for OPT-66B at batch
// 1, the CPU cuts latency ~80.1 % vs the offloading H100 (5× throughput).
func TestOPT66BH100Anchor(t *testing.T) {
	gpu := mustSim(t, run(hw.H100, model.OPT66B, 1))
	cpu := cpuResult(t, model.OPT66B, 1)
	speedup := gpu.Latency.E2E / cpu.Latency.E2E
	if speedup < 3.5 || speedup > 6.5 {
		t.Errorf("CPU speedup over H100+offload = %.1fx, paper 5x "+
			"(gpu %.1fs cpu %.1fs)", speedup, gpu.Latency.E2E, cpu.Latency.E2E)
	}
}

// TestFig18BreakdownShape: the PCIe data-loading share must start near
// the top of the paper's band at batch 1 and fall substantially by batch
// 32 (zig-zag overlap + pipelining), for both configurations of Fig 18.
func TestFig18BreakdownShape(t *testing.T) {
	cases := []struct {
		gpu  hw.GPU
		m    model.Config
		lo1  float64 // minimum fraction at batch 1
		hi32 float64 // maximum fraction at batch 32
	}{
		{hw.A100, model.OPT30B, 0.85, 0.80},
		{hw.H100, model.OPT66B, 0.85, 0.80},
	}
	for _, c := range cases {
		f1 := mustSim(t, run(c.gpu, c.m, 1)).PCIeFraction()
		f32 := mustSim(t, run(c.gpu, c.m, 32)).PCIeFraction()
		if f1 < c.lo1 || f1 > 0.99 {
			t.Errorf("%s/%s b=1: PCIe fraction %.2f outside [%.2f, 0.99]",
				c.gpu.Name, c.m.Name, f1, c.lo1)
		}
		if f32 >= f1 {
			t.Errorf("%s/%s: PCIe fraction must fall with batch (%.2f -> %.2f)",
				c.gpu.Name, c.m.Name, f1, f32)
		}
		if f32 > c.hi32 {
			t.Errorf("%s/%s b=32: PCIe fraction %.2f above %.2f",
				c.gpu.Name, c.m.Name, f32, c.hi32)
		}
		if f32 < 0.2 {
			t.Errorf("%s/%s b=32: PCIe fraction %.2f implausibly low",
				c.gpu.Name, c.m.Name, f32)
		}
	}
}

// TestLlama70BCrossover reproduces Fig 21's Key Finding #5: at batch 16
// the offloading H100 overtakes the CPU on LLaMA2-70B once the input is
// long enough, while the A100 never does.
func TestLlama70BCrossover(t *testing.T) {
	cpuAt := func(in int) float64 {
		r := perfmodel.CPURun{
			Model: model.Llama70B,
			Setup: memsim.Config{CPU: hw.SPRMax9468, Cores: 48, Mem: memsim.Flat, Cluster: memsim.Quad},
			Batch: 16, InputLen: in, OutputLen: 32, Weights: tensor.BF16,
		}
		res, err := r.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.E2E
	}
	gpuAt := func(g hw.GPU, in int) float64 {
		rr := run(g, model.Llama70B, 16)
		rr.InputLen = in
		return mustSim(t, rr).Latency.E2E
	}
	// H100 must win at some input length ≥ 256 within the sweep.
	won := false
	for _, in := range []int{256, 512, 1024} {
		if gpuAt(hw.H100, in) < cpuAt(in) {
			won = true
			break
		}
	}
	if !won {
		t.Error("H100+offload never overtakes CPU on LLaMA2-70B b=16 (paper: ≥256)")
	}
	// A100 must lose across the whole sweep.
	for _, in := range []int{128, 256, 512, 1024} {
		if gpuAt(hw.A100, in) < cpuAt(in) {
			t.Errorf("A100+offload beat CPU at input %d; paper says it never does", in)
		}
	}
}

// TestBatchedOffloadImprovesThroughput: zig-zag overlap plus pipelining
// must raise offloaded tokens/s with batch size.
func TestBatchedOffloadImprovesThroughput(t *testing.T) {
	prev := 0.0
	for _, b := range []int{1, 4, 16, 32} {
		res := mustSim(t, run(hw.A100, model.OPT30B, b))
		if res.Throughput.E2E <= prev {
			t.Errorf("batch %d: offloaded throughput %.2f not above %.2f",
				b, res.Throughput.E2E, prev)
		}
		prev = res.Throughput.E2E
	}
}

// TestCompression4Bit: compressed streaming quarters the wire bytes and
// must make offloaded decode dramatically faster; uncompressed plans are
// unchanged.
func TestCompression4Bit(t *testing.T) {
	plain := run(hw.H100, model.OPT66B, 1)
	comp := plain
	comp.Compress4Bit = true

	pp, cp := plain.Plan(), comp.Plan()
	if pp.StreamWireGB != pp.StreamedGB {
		t.Error("uncompressed wire bytes must equal streamed bytes")
	}
	if cp.StreamWireGB > pp.StreamWireGB/3 {
		t.Errorf("compressed wire %.1f GB should be ~1/4 of %.1f GB",
			cp.StreamWireGB, pp.StreamWireGB)
	}
	rPlain := mustSim(t, plain)
	rComp := mustSim(t, comp)
	if rComp.Latency.TPOT > rPlain.Latency.TPOT/2 {
		t.Errorf("compression should at least halve TPOT: %.2fs vs %.2fs",
			rComp.Latency.TPOT, rPlain.Latency.TPOT)
	}
	// OPT-30B compressed (15 GB) fits the A100 outright.
	c30 := run(hw.A100, model.OPT30B, 1)
	c30.Compress4Bit = true
	if c30.Plan().StreamWireGB != 0 {
		t.Error("compressed OPT-30B should be fully A100-resident")
	}
}

// TestCompressionExplainsFig21: with 4-bit compression (which FlexGen
// supports and the paper's H100 runs plausibly used), the H100 overtakes
// the CPU on LLaMA2-70B at batch 16 already at short inputs — the
// EXPERIMENTS.md hypothesis for the crossover-position gap.
func TestCompressionExplainsFig21(t *testing.T) {
	cpu := cpuResult(t, model.Llama70B, 16)
	comp := run(hw.H100, model.Llama70B, 16)
	comp.Compress4Bit = true
	gpu := mustSim(t, comp)
	if gpu.Latency.E2E >= cpu.Latency.E2E {
		t.Errorf("compressed H100 (%.1fs) should beat CPU (%.1fs) at in=128",
			gpu.Latency.E2E, cpu.Latency.E2E)
	}
}

func TestValidation(t *testing.T) {
	r := run(hw.A100, model.OPT30B, 0)
	if _, err := r.Simulate(); err == nil {
		t.Error("zero batch must fail")
	}
	// OPT-175B (350 GB) exceeds the SPR host's 640 GB? It fits; use a
	// host-capacity violation via huge KV instead.
	r = run(hw.A100, model.OPT175B, 32)
	r.InputLen = 4096
	if _, err := r.Simulate(); err == nil {
		t.Error("working set beyond host memory must fail")
	}
	r = Run{GPU: hw.A100, Host: hw.SPRMax9468, Model: model.Config{Name: "bad"},
		Batch: 1, InputLen: 1, OutputLen: 1}
	if _, err := r.Simulate(); err == nil {
		t.Error("invalid model must fail")
	}
}

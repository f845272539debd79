package experiments

import (
	"fmt"
	"sort"

	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// CPUPointWithWeights is CPUPoint with an explicit weight dtype (used by
// the quantization ablation).
func CPUPointWithWeights(setup memsim.Config, m model.Config, batch, in, out int, dt tensor.DType) (metrics.Result, error) {
	return perfmodel.CPURun{
		Model: m, Setup: setup, Batch: batch,
		InputLen: in, OutputLen: out, Weights: dt,
	}.Simulate()
}

// Experiment is a runnable reproduction of one paper table/figure (or a
// §VI optimization ablation).
type Experiment struct {
	Key   string // CLI key, e.g. "fig18"
	Title string
	Run   func() ([]Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	wrap1 := func(f func() Table) func() ([]Table, error) {
		return func() ([]Table, error) { return []Table{f()}, nil }
	}
	return []Experiment{
		{"table1", "CPU server setup", wrap1(TableI)},
		{"table2", "GPU server setup", wrap1(TableII)},
		{"fig1", "GEMM throughput across platforms", wrap1(Fig1)},
		{"fig6", "Model weight footprints", wrap1(Fig6)},
		{"fig7", "KV-cache footprints (LLaMA2-13B)", wrap1(Fig7)},
		{"fig8", "E2E latency/throughput: ICL vs SPR", Fig8},
		{"fig9", "Phase latency: ICL vs SPR", Fig9},
		{"fig10", "Phase throughput: ICL vs SPR", Fig10},
		{"fig11", "Counters vs batch: LLaMA2-13B", Fig11},
		{"fig12", "Counters vs batch: OPT-66B", Fig12},
		{"fig13", "NUMA memory/clustering modes", Fig13},
		{"fig14", "Core-count sweep", Fig14},
		{"fig15", "Counters per NUMA config", Fig15},
		{"fig16", "Counters per core count", Fig16},
		{"fig17", "CPU vs GPUs, batch 1", Fig17},
		{"fig18", "Offloading time breakdown", Fig18},
		{"fig19", "CPU vs GPUs, batch 16", Fig19},
		{"fig20", "Sequence-length sweep, batch 1", Fig20},
		{"fig21", "Sequence-length sweep, batch 16", Fig21},
		{"opt-numa", "§VI NUMA-aware placement ablation", OptNUMA},
		{"opt-hybrid", "§VI CPU-GPU hybrid execution ablation", OptHybrid},
		{"opt-int8", "INT8 weight quantization ablation", OptInt8},
		{"opt-paged", "Paged KV-cache allocation ablation", OptPaged},
		{"opt-tp", "Tensor-parallel two-socket ablation", OptTP},
		{"opt-spec", "Speculative-decoding ablation", OptSpec},
		{"serve-policies", "Serving batching-policy comparison", ServePolicies},
		{"gh200", "Grace-Hopper NVLink offloading (§V-B)", GH200Exp},
		{"pareto", "TTFT vs throughput frontier", Pareto},
		{"sensitivity", "Hardware-parameter elasticities", Sensitivity},
		{"offload-compress", "4-bit compression under offloading", OffloadCompress},
		{"serve-memory", "Memory-aware serving under KV budgets", ServeMemory},
		{"econ", "Cost-efficiency analysis (footnote 1)", Econ},
	}
}

// ByKey returns the experiment with the given key.
func ByKey(key string) (Experiment, error) {
	for _, e := range All() {
		if e.Key == key {
			return e, nil
		}
	}
	keys := make([]string, 0, len(All()))
	for _, e := range All() {
		keys = append(keys, e.Key)
	}
	sort.Strings(keys)
	return Experiment{}, fmt.Errorf("experiments: unknown key %q (have %v)", key, keys)
}

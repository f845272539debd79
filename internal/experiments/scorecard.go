package experiments

import (
	"fmt"

	"repro/internal/metrics"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Claim is one quantitative statement from the paper together with the
// code that measures it on the simulator.
type Claim struct {
	ID        string
	Source    string // figure/table/section
	Statement string // the paper's claim
	Paper     string // the paper's number(s)
	// Measure returns the measured value and whether it reproduces the
	// claim (within the tolerance stated in EXPERIMENTS.md).
	Measure func() (measured string, pass bool, err error)
}

// Scorecard returns every tracked claim in paper order.
func Scorecard() []Claim {
	return []Claim{
		{
			ID: "mem-opt175b", Source: "§III / Fig 6",
			Statement: "OPT-175B needs ~350 GB in FP16",
			Paper:     "350 GB",
			Measure: func() (string, bool, error) {
				gb := float64(model.OPT175B.WeightBytes(tensor.FP16)) / 1e9
				return fmt.Sprintf("%.0f GB", gb), gb > 330 && gb < 370, nil
			},
		},
		{
			ID: "mem-kv288", Source: "§I / §II-B",
			Statement: "OPT-66B KV cache at seq 4096, batch 32 is 288 GB",
			Paper:     "288 GB",
			Measure: func() (string, bool, error) {
				gib := float64(model.OPT66B.KVCacheBytes(4096, 32, tensor.BF16)) / (1 << 30)
				return fmt.Sprintf("%.0f GiB", gib), gib > 280 && gib < 296, nil
			},
		},
		{
			ID: "kf1-e2e", Source: "Fig 8 / KF#1",
			Statement: "SPR cuts E2E latency 68.4–84.1% vs ICL (mean over models × batches)",
			Paper:     "−68.4…−84.1%",
			Measure: func() (string, bool, error) {
				r, err := meanSPRICLRatio(func(spr, icl float64) float64 { return spr / icl })
				if err != nil {
					return "", false, err
				}
				red := (1 - r) * 100
				return fmt.Sprintf("−%.1f%%", red), red > 55 && red < 87, nil
			},
		},
		{
			ID: "kf1-thpt", Source: "Fig 8 / KF#1",
			Statement: "SPR throughput 3.2–6.3× over ICL",
			Paper:     "3.2–6.3×",
			Measure: func() (string, bool, error) {
				var ratios []float64
				err := forEachPair(func(m model.Config, b int, spr, icl metrics.Result) {
					ratios = append(ratios, spr.Throughput.E2E/icl.Throughput.E2E)
				})
				if err != nil {
					return "", false, err
				}
				g, _ := stats.GeoMean(ratios)
				return fmt.Sprintf("geomean %.1f× (max %.1f×)", g, stats.Max(ratios)),
					g > 2.8 && stats.Max(ratios) < 7, nil
			},
		},
		{
			ID: "kf2-quadflat", Source: "Fig 13 / KF#2",
			Statement: "quad_flat is the best SPR configuration",
			Paper:     "quad_flat best",
			Measure: func() (string, bool, error) {
				tabs, err := Fig13()
				if err != nil {
					return "", false, err
				}
				best, bestV := "", 0.0
				for _, row := range tabs[0].Rows {
					v := parseF(row[1])
					if best == "" || v < bestV {
						best, bestV = row[0], v
					}
				}
				return best, best == "quad_flat", nil
			},
		},
		{
			ID: "kf3-cores", Source: "Fig 14 / KF#3",
			Statement: "48 cores cut E2E latency ~59.8% vs 12; 96 cores regress",
			Paper:     "−59.8% @48",
			Measure: func() (string, bool, error) {
				tabs, err := Fig14()
				if err != nil {
					return "", false, err
				}
				vals := map[string]float64{}
				for _, row := range tabs[0].Rows {
					vals[row[0]] = parseF(row[1])
				}
				red := (1 - vals["48"]) * 100
				ok := red > 45 && red < 72 && vals["96"] > vals["48"]
				return fmt.Sprintf("−%.1f%% @48, 96c at %.2f", red, vals["96"]), ok, nil
			},
		},
		{
			ID: "counters-trend", Source: "Figs 11/12",
			Statement: "LLC MPKI falls and core utilization rises with batch size",
			Paper:     "monotone trends",
			Measure: func() (string, bool, error) {
				r1, err := CPUPoint(SPRSetup(), model.Llama13B, 1, DefaultIn, DefaultOut)
				if err != nil {
					return "", false, err
				}
				r32, err := CPUPoint(SPRSetup(), model.Llama13B, 32, DefaultIn, DefaultOut)
				if err != nil {
					return "", false, err
				}
				ok := r32.Counters.LLCMPKI < r1.Counters.LLCMPKI &&
					r32.Counters.CoreUtilization > r1.Counters.CoreUtilization
				return fmt.Sprintf("MPKI %.0f→%.0f, util %.2f→%.2f",
					r1.Counters.LLCMPKI, r32.Counters.LLCMPKI,
					r1.Counters.CoreUtilization, r32.Counters.CoreUtilization), ok, nil
			},
		},
		{
			ID: "kf4-h100-opt13b", Source: "Fig 17 / KF#4",
			Statement: "H100 cuts OPT-13B batch-1 E2E latency 72.8% vs the CPU",
			Paper:     "−72.8%",
			Measure: func() (string, bool, error) {
				cpu, err := CPUPoint(SPRSetup(), model.OPT13B, 1, DefaultIn, DefaultOut)
				if err != nil {
					return "", false, err
				}
				gpu, err := GPUPoint(hw.H100, model.OPT13B, 1, DefaultIn, DefaultOut)
				if err != nil {
					return "", false, err
				}
				red := (1 - gpu.Latency.E2E/cpu.Latency.E2E) * 100
				return fmt.Sprintf("−%.1f%%", red), red > 60 && red < 82, nil
			},
		},
		{
			ID: "kf4-a100-opt30b", Source: "Fig 17 / KF#4",
			Statement: "CPU beats the offloading A100 on OPT-30B by 12.7× throughput",
			Paper:     "12.7×",
			Measure: func() (string, bool, error) {
				cpu, err := CPUPoint(SPRSetup(), model.OPT30B, 1, DefaultIn, DefaultOut)
				if err != nil {
					return "", false, err
				}
				gpu, err := GPUPoint(hw.A100, model.OPT30B, 1, DefaultIn, DefaultOut)
				if err != nil {
					return "", false, err
				}
				x := cpu.Throughput.E2E / gpu.Throughput.E2E
				return fmt.Sprintf("%.1f×", x), x > 9 && x < 16, nil
			},
		},
		{
			ID: "kf4-h100-opt66b", Source: "Fig 17 / KF#4",
			Statement: "CPU beats the offloading H100 on OPT-66B by 5× throughput",
			Paper:     "5×",
			Measure: func() (string, bool, error) {
				cpu, err := CPUPoint(SPRSetup(), model.OPT66B, 1, DefaultIn, DefaultOut)
				if err != nil {
					return "", false, err
				}
				gpu, err := GPUPoint(hw.H100, model.OPT66B, 1, DefaultIn, DefaultOut)
				if err != nil {
					return "", false, err
				}
				x := cpu.Throughput.E2E / gpu.Throughput.E2E
				return fmt.Sprintf("%.1f×", x), x > 3.5 && x < 6.5, nil
			},
		},
		{
			ID: "fig18-band", Source: "Fig 18",
			Statement: "PCIe data loading takes 67–95% (A100) / 59–92% (H100) of offloaded execution, falling with batch",
			Paper:     "95→67% / 92→59%",
			Measure: func() (string, bool, error) {
				f := func(g hw.GPU, m model.Config, b int) (float64, error) {
					res, err := offload.Run{GPU: g, Host: hw.SPRMax9468, Model: m,
						Batch: b, InputLen: DefaultIn, OutputLen: DefaultOut,
						Weights: tensor.BF16}.Simulate()
					return res.PCIeFraction() * 100, err
				}
				a1, err := f(hw.A100, model.OPT30B, 1)
				if err != nil {
					return "", false, err
				}
				a32, _ := f(hw.A100, model.OPT30B, 32)
				h1, _ := f(hw.H100, model.OPT66B, 1)
				h32, _ := f(hw.H100, model.OPT66B, 32)
				ok := a1 > 85 && a32 < a1 && h1 > 85 && h32 < h1 && a32 > 20 && h32 > 20
				return fmt.Sprintf("%.0f→%.0f%% / %.0f→%.0f%%", a1, a32, h1, h32), ok, nil
			},
		},
		{
			ID: "kf5-fig20", Source: "Fig 20 / KF#5",
			Statement: "at batch 1 the CPU wins LLaMA2-70B at every input length",
			Paper:     "CPU wins all lengths",
			Measure: func() (string, bool, error) {
				wins := 0
				for _, in := range SeqLens {
					cpu, err := CPUPoint(SPRSetup(), model.Llama70B, 1, in, DefaultOut)
					if err != nil {
						return "", false, err
					}
					gpu, err := GPUPoint(hw.H100, model.Llama70B, 1, in, DefaultOut)
					if err != nil {
						return "", false, err
					}
					if cpu.Latency.E2E < gpu.Latency.E2E {
						wins++
					}
				}
				return fmt.Sprintf("CPU wins %d/%d lengths", wins, len(SeqLens)),
					wins == len(SeqLens), nil
			},
		},
		{
			ID: "kf5-fig21", Source: "Fig 21 / KF#5",
			Statement: "at batch 16 the offloading H100 overtakes the CPU on LLaMA2-70B at long inputs; the A100 never does",
			Paper:     "crossover ≥256 (ours lands at 1024); A100 never",
			Measure: func() (string, bool, error) {
				h100Win, a100Win := -1, false
				for _, in := range SeqLens {
					cpu, err := CPUPoint(SPRSetup(), model.Llama70B, 16, in, DefaultOut)
					if err != nil {
						return "", false, err
					}
					h, err := GPUPoint(hw.H100, model.Llama70B, 16, in, DefaultOut)
					if err != nil {
						return "", false, err
					}
					a, err := GPUPoint(hw.A100, model.Llama70B, 16, in, DefaultOut)
					if err != nil {
						return "", false, err
					}
					if h.Latency.E2E < cpu.Latency.E2E && h100Win < 0 {
						h100Win = in
					}
					if a.Latency.E2E < cpu.Latency.E2E {
						a100Win = true
					}
				}
				ok := h100Win >= 256 && !a100Win
				return fmt.Sprintf("H100 crossover at %d; A100 wins: %v", h100Win, a100Win), ok, nil
			},
		},
	}
}

// RunScorecard evaluates every claim and renders the result table; failed
// lists the IDs of the claims that did not reproduce.
func RunScorecard() (t Table, failed []string, err error) {
	t = Table{ID: "Scorecard",
		Title:   "Reproduction scorecard: paper claims vs this repository",
		Columns: []string{"claim", "source", "paper", "measured", "status"},
	}
	for _, c := range Scorecard() {
		measured, pass, err := c.Measure()
		if err != nil {
			return Table{}, nil, fmt.Errorf("scorecard %s: %w", c.ID, err)
		}
		status := "PASS"
		if !pass {
			status = "FAIL"
			failed = append(failed, c.ID)
		}
		t.Rows = append(t.Rows, []string{c.ID, c.Source, c.Paper, measured, status})
	}
	return t, failed, nil
}

func parseF(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%f", &v)
	return v
}

// meanSPRICLRatio averages f(spr, icl) over the standard grid using E2E
// latency.
func meanSPRICLRatio(f func(spr, icl float64) float64) (float64, error) {
	var vals []float64
	err := forEachPair(func(m model.Config, b int, spr, icl metrics.Result) {
		vals = append(vals, f(spr.Latency.E2E, icl.Latency.E2E))
	})
	if err != nil {
		return 0, err
	}
	return stats.Mean(vals), nil
}

package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("%s[%d][%d] = %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		tabs, err := e.Run()
		if err != nil {
			t.Errorf("%s: %v", e.Key, err)
			continue
		}
		if len(tabs) == 0 {
			t.Errorf("%s: no tables", e.Key)
			continue
		}
		for _, tab := range tabs {
			if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
				t.Errorf("%s/%s: empty table", e.Key, tab.ID)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("%s/%s: row width %d != %d columns: %v",
						e.Key, tab.ID, len(row), len(tab.Columns), row)
				}
			}
			if !strings.Contains(tab.Render(), tab.ID) {
				t.Errorf("%s: Render missing ID", e.Key)
			}
		}
	}
}

func TestByKey(t *testing.T) {
	e, err := ByKey("fig18")
	if err != nil || e.Key != "fig18" {
		t.Fatalf("ByKey(fig18) = %v, %v", e.Key, err)
	}
	if _, err := ByKey("fig99"); err == nil {
		t.Error("unknown key must error")
	}
}

func TestRegistryCoversEvaluation(t *testing.T) {
	want := []string{"table1", "table2", "fig1", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21"}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.Key] = true
	}
	for _, k := range want {
		if !have[k] {
			t.Errorf("registry missing paper experiment %s", k)
		}
	}
}

// TestFig1Shape: SPR AMX must sit far above ICL and below the GPUs at
// large dimensions, the ordering Fig 1 shows.
func TestFig1Shape(t *testing.T) {
	tab := Fig1()
	last := len(tab.Rows) - 1 // dim 8192
	icl, spr := cell(t, tab, last, 1), cell(t, tab, last, 2)
	a100, h100 := cell(t, tab, last, 3), cell(t, tab, last, 4)
	if !(icl < spr && spr < a100 && a100 < h100) {
		t.Errorf("Fig1 ordering broken at 8192: icl=%v spr=%v a100=%v h100=%v",
			icl, spr, a100, h100)
	}
	if spr/icl < 4 {
		t.Errorf("SPR AMX advantage over ICL only %.1fx at 8192", spr/icl)
	}
	// At the smallest dim the AMX advantage must shrink.
	icl0, spr0 := cell(t, tab, 0, 1), cell(t, tab, 0, 2)
	if spr0/icl0 >= spr/icl {
		t.Error("AMX advantage should grow with matrix dimension")
	}
}

// TestFig6Shape: footprints grow with size; LLaMA2-70B must not fit H100.
func TestFig6Shape(t *testing.T) {
	tab := Fig6()
	for _, row := range tab.Rows {
		if row[0] == "LLaMA2-70B" && row[4] != "false" {
			t.Error("LLaMA2-70B must not fit an H100")
		}
		if row[0] == "OPT-13B" && row[4] != "true" {
			t.Error("OPT-13B must fit an H100")
		}
	}
}

// TestFig7Shape: KV cache must eventually exceed the model size at large
// batch × sequence (the paper's headline memory observation).
func TestFig7Shape(t *testing.T) {
	tab := Fig7()
	lastRow := tab.Rows[len(tab.Rows)-1] // seq 32768
	if lastRow[len(lastRow)-1] == "-" {
		t.Error("KV cache never exceeded the model size at seq 32768")
	}
	// Linearity: batch 32 column = 32 × batch 1 column (use the seq-2048
	// row where two-decimal rounding is negligible).
	b1 := cell(t, tab, 3, 1)
	b32 := cell(t, tab, 3, 4)
	if b32/b1 < 31.8 || b32/b1 > 32.2 {
		t.Errorf("KV batch scaling = %.2f, want 32", b32/b1)
	}
}

// TestFig8Shape: every normalized SPR latency must be < 1 (SPR always
// wins) and within the paper's 0.16–0.32 envelope on average.
func TestFig8Shape(t *testing.T) {
	tabs, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	lat := tabs[0]
	var sum float64
	var n int
	for r := range lat.Rows {
		for c := 1; c < len(lat.Rows[r]); c++ {
			v := cell(t, lat, r, c)
			if v >= 1 {
				t.Errorf("SPR slower than ICL at %v: %v", lat.Rows[r][0], v)
			}
			sum += v
			n++
		}
	}
	mean := sum / float64(n)
	if mean < 0.13 || mean > 0.35 {
		t.Errorf("mean normalized SPR latency = %.2f, paper band 0.16–0.32", mean)
	}
}

// TestFig9Fig10Shape: phase tables must show SPR winning both phases, with
// the prefill advantage exceeding the decode advantage at large batch
// (AMX helps compute-bound prefill more than HBM helps decode).
func TestFig9Fig10Shape(t *testing.T) {
	tabs9, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs9 {
		for r := range tab.Rows {
			for c := 1; c < len(tab.Rows[r]); c++ {
				if v := cell(t, tab, r, c); v >= 1 {
					t.Errorf("%s %s: SPR slower than ICL (%v)", tab.ID, tab.Rows[r][0], v)
				}
			}
		}
	}
	tabs10, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	pre, dec := tabs10[0], tabs10[1]
	lastCol := len(pre.Columns) - 1
	for r := range pre.Rows {
		p := cell(t, pre, r, lastCol)
		d := cell(t, dec, r, lastCol)
		if p <= d {
			t.Errorf("%s: batch-32 prefill speedup %.1f not above decode %.1f",
				pre.Rows[r][0], p, d)
		}
	}
}

// TestMarkdownRendering: tables must render as valid GitHub Markdown.
func TestMarkdownRendering(t *testing.T) {
	md := TableII().Markdown()
	for _, want := range []string{"### Table II", "| GPU |", "|---|", "| H100-80GB |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	// Pipe escaping.
	tab := Table{ID: "x", Title: "t", Columns: []string{"a"}, Rows: [][]string{{"p|q"}}}
	if !strings.Contains(tab.Markdown(), `p\|q`) {
		t.Error("pipes must be escaped")
	}
}

// TestFig13Shape: quad_flat must be the best configuration on E2E latency
// and E2E throughput (Key Finding #2).
func TestFig13Shape(t *testing.T) {
	tabs, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	bestLat, bestThr := "", ""
	var minLat, maxThr float64
	for r, row := range tab.Rows {
		lat := cell(t, tab, r, 1)
		thr := cell(t, tab, r, len(row)-1)
		if bestLat == "" || lat < minLat {
			bestLat, minLat = row[0], lat
		}
		if bestThr == "" || thr > maxThr {
			bestThr, maxThr = row[0], thr
		}
	}
	if bestLat != "quad_flat" || bestThr != "quad_flat" {
		t.Errorf("best config = %s (lat) / %s (thr), paper says quad_flat", bestLat, bestThr)
	}
}

// TestFig14Shape: 48 cores must be the best E2E latency; 96 must regress
// (Key Finding #3). The paper reports ~0.40 normalized latency at 48.
func TestFig14Shape(t *testing.T) {
	tabs, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	byCores := map[string]float64{}
	for r, row := range tab.Rows {
		byCores[row[0]] = cell(t, tab, r, 1)
	}
	if !(byCores["48"] < byCores["24"] && byCores["24"] < byCores["12"]) {
		t.Errorf("latency must fall to 48 cores: %v", byCores)
	}
	if byCores["96"] <= byCores["48"] {
		t.Errorf("96 cores must regress: %v", byCores)
	}
	if byCores["48"] < 0.28 || byCores["48"] > 0.55 {
		t.Errorf("48-core normalized latency = %.2f, paper ≈0.40", byCores["48"])
	}
}

// TestFig17Shape reads Key Finding #4 off the table: GPUs win for models
// that fit, the CPU wins for offloaded models.
func TestFig17Shape(t *testing.T) {
	tabs, err := Fig17()
	if err != nil {
		t.Fatal(err)
	}
	lat := tabs[0]
	for r, row := range lat.Rows {
		h100 := cell(t, lat, r, 3)
		switch row[0] {
		case "OPT-1.3B", "OPT-6.7B", "LLaMA2-7B", "OPT-13B", "LLaMA2-13B":
			if h100 >= 1 {
				t.Errorf("%s: H100 must beat CPU (got %.2f)", row[0], h100)
			}
		case "OPT-66B", "LLaMA2-70B":
			if h100 <= 1 {
				t.Errorf("%s: CPU must beat offloading H100 (got %.2f)", row[0], h100)
			}
		}
		if row[0] == "OPT-30B" {
			a100 := cell(t, lat, r, 2)
			if a100 <= 1 {
				t.Errorf("OPT-30B: CPU must beat offloading A100 (got %.2f)", a100)
			}
			if row[5] != "resident" {
				t.Error("OPT-30B must run resident on H100")
			}
		}
	}
}

// TestFig18Shape: PCIe share must decrease monotonically with batch for
// both configurations.
func TestFig18Shape(t *testing.T) {
	tabs, err := Fig18()
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	for _, col := range []int{1, 3} {
		prev := 101.0
		for r := range tab.Rows {
			v := cell(t, tab, r, col)
			if v > prev {
				t.Errorf("col %d: PCIe share rose from %.0f to %.0f at batch %s",
					col, prev, v, tab.Rows[r][0])
			}
			prev = v
		}
	}
}

// TestFig20Fig21Shape: batch-1 sweep — CPU must stay best for LLaMA2-70B
// at every length; batch-16 — H100 must take over at some length ≥ 256
// while A100 never wins.
func TestFig20Fig21Shape(t *testing.T) {
	tabs, err := Fig20()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		if row[0] == "LLaMA2-70B" && row[len(row)-1] != "CPU" {
			t.Errorf("Fig20: LLaMA2-70B at input %s won by %s, paper says CPU",
				row[1], row[len(row)-1])
		}
	}
	tabs, err = Fig21()
	if err != nil {
		t.Fatal(err)
	}
	h100Wins := false
	for _, row := range tabs[0].Rows {
		if row[0] != "LLaMA2-70B" {
			continue
		}
		if row[len(row)-1] == "H100" {
			h100Wins = true
		}
		if row[len(row)-1] == "A100" {
			t.Errorf("Fig21: A100 won LLaMA2-70B at input %s", row[1])
		}
	}
	if !h100Wins {
		t.Error("Fig21: H100 never overtakes CPU on LLaMA2-70B")
	}
}

// TestOptPagedShape: the paged-KV gain must grow as actual lengths shrink
// below the reservation, with negligible internal waste.
func TestOptPagedShape(t *testing.T) {
	tabs, err := OptPaged()
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	prev := 0.0
	for r := range tab.Rows {
		gain := cell(t, tab, r, 3)
		if gain < prev {
			t.Errorf("paged gain must grow as sequences shorten: row %d", r)
		}
		prev = gain
	}
	if prev < 8 {
		t.Errorf("gain at 256 tokens = %.1f, want ≥ 8", prev)
	}
}

// TestServePoliciesShape: at the highest load, continuous ≥ static ≥ FCFS
// on throughput, and continuous must slash mean TTFT.
func TestServePoliciesShape(t *testing.T) {
	tabs, err := ServePolicies()
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	byPolicy := map[string][]float64{} // policy -> [ttft, thpt] at last load
	n := len(tab.Rows)
	for r := n - 3; r < n; r++ {
		byPolicy[tab.Rows[r][1]] = []float64{cell(t, tab, r, 2), cell(t, tab, r, 4)}
	}
	if byPolicy["continuous"][1] < byPolicy["static"][1] ||
		byPolicy["static"][1] < byPolicy["fcfs"][1] {
		t.Errorf("throughput ordering broken: %v", byPolicy)
	}
	if byPolicy["continuous"][0] >= byPolicy["static"][0] {
		t.Errorf("continuous TTFT %.2f must beat static %.2f",
			byPolicy["continuous"][0], byPolicy["static"][0])
	}
}

// TestGH200Shape: the §V-B discussion point — NVLink offloading must beat
// PCIe offloading by a wide margin and be at least competitive with the
// CPU on latency, while the CPU keeps the per-dollar edge (the "~4× cost"
// caveat).
func TestGH200Shape(t *testing.T) {
	tabs, err := GH200Exp()
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range tabs[0].Rows {
		cpu := cell(t, tabs[0], r, 1)
		h100 := cell(t, tabs[0], r, 2)
		gh := cell(t, tabs[0], r, 3)
		if gh > h100/3 {
			t.Errorf("%s: GH200 (%.1fs) should crush PCIe offloading (%.1fs)", row[0], gh, h100)
		}
		if gh > cpu*1.1 {
			t.Errorf("%s: GH200 (%.1fs) should be at least CPU-competitive (%.1fs)", row[0], gh, cpu)
		}
		if cell(t, tabs[0], r, 4) <= cell(t, tabs[0], r, 5) {
			t.Errorf("%s: CPU must keep the per-dollar edge", row[0])
		}
	}
}

// TestEconShape: the paper's economic argument read off the table — the
// cheap A100 wins per-dollar on models it fits; the SPR CPU wins
// per-dollar on models that force GPU offloading.
func TestPriceRatioMatchesPaperFootnote(t *testing.T) {
	// Footnote 1: the Max 9468 is ~3× cheaper than an H100-80GB.
	if r := priceH100.priceUSD / priceSPRMax9468.priceUSD; r < 2.4 || r > 3.6 {
		t.Errorf("H100/SPR price ratio = %.2f, paper proxy ≈3", r)
	}
}

func TestCostEfficiency(t *testing.T) {
	res := metrics.New("SPR", "OPT-30B", 1, 128, 32, 0.2, 3.0)
	e, err := costEfficiency(res, priceSPRMax9468)
	if err != nil {
		t.Fatal(err)
	}
	if e.TokensPerSecond != res.Throughput.E2E {
		t.Error("tokens/s must pass through")
	}
	want := res.Throughput.E2E / (priceSPRMax9468.priceUSD / 1000)
	if e.TokensPerSecondPerKUSD != want {
		t.Errorf("per-k$ = %v, want %v", e.TokensPerSecondPerKUSD, want)
	}
	if _, err := costEfficiency(res, pricing{name: "free"}); err == nil {
		t.Error("zero price must fail")
	}
}

func TestEconShape(t *testing.T) {
	tabs, err := Econ()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tabs[0].Rows {
		switch row[0] {
		case "OPT-13B":
			if row[4] != "A100" {
				t.Errorf("OPT-13B best value = %s, want A100", row[4])
			}
		case "OPT-66B", "LLaMA2-70B":
			if row[4] != "SPR" {
				t.Errorf("%s best value = %s, want SPR", row[0], row[4])
			}
		}
	}
}

// TestOptAblations: both §VI optimizations must show a benefit.
func TestOptAblations(t *testing.T) {
	tabs, err := OptNUMA()
	if err != nil {
		t.Fatal(err)
	}
	if sp := cell(t, tabs[0], 1, 3); sp <= 1 {
		t.Errorf("NUMA placement speedup = %.2f, want > 1", sp)
	}
	tabs, err = OptHybrid()
	if err != nil {
		t.Fatal(err)
	}
	for r := range tabs[0].Rows {
		if sp := cell(t, tabs[0], r, 5); sp <= 1 {
			t.Errorf("hybrid vs offload speedup = %.2f, want > 1", sp)
		}
	}
	tabs, err = OptInt8()
	if err != nil {
		t.Fatal(err)
	}
	for r := range tabs[0].Rows {
		if sp := cell(t, tabs[0], r, 5); sp < 1.3 {
			t.Errorf("int8 speedup = %.2f, want ≳1.5 (half the weight bytes)", sp)
		}
	}
}

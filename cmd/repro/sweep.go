package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
)

func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro sweep", flag.ContinueOnError)
	platforms := fs.String("platforms", "spr,icl,a100,h100", "comma-separated platforms")
	models := fs.String("models", "", "comma-separated model presets (default: all eight)")
	batches := fs.String("batches", "1,2,4,8,16,32", "comma-separated batch sizes")
	inputs := fs.String("inputs", "128", "comma-separated input lengths")
	out := fs.Int("out", 32, "output length")
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}

	g := grid{output: *out}
	for _, p := range strings.Split(*platforms, ",") {
		g.platforms = append(g.platforms, strings.TrimSpace(p))
	}
	var err error
	if g.models, err = parseModels(*models); err != nil {
		return fail(stderr, "sweep", err)
	}
	if g.batches, err = parseInts(*batches); err != nil {
		return fail(stderr, "sweep", err)
	}
	if g.inputs, err = parseInts(*inputs); err != nil {
		return fail(stderr, "sweep", err)
	}
	rows, err := g.run()
	if err != nil {
		return fail(stderr, "sweep", err)
	}
	skipped, err := writeCSV(stdout, *out, rows)
	if err != nil {
		return fail(stderr, "sweep", err)
	}
	if skipped > 0 {
		fmt.Fprintf(stderr, "repro sweep: skipped %d infeasible points\n", skipped)
	}
	return 0
}

// grid is a sweep specification over hw's platform registry keys.
type grid struct {
	platforms []string
	models    []model.Config
	batches   []int
	inputs    []int
	output    int
}

// validate reports empty or malformed grids.
func (g grid) validate() error {
	if len(g.platforms) == 0 || len(g.models) == 0 || len(g.batches) == 0 ||
		len(g.inputs) == 0 || g.output <= 0 {
		return fmt.Errorf("empty grid dimension")
	}
	for _, p := range g.platforms {
		if _, err := hw.PlatformByKey(p); err != nil {
			return err
		}
	}
	return nil
}

// sweepRow is one sweep point's outcome. err is set when the point could
// not be simulated (e.g. a working set beyond host memory) — the sweep
// continues past it.
type sweepRow struct {
	platform string
	model    string
	batch    int
	input    int
	result   metrics.Result
	err      error
}

// simulatePoint prices one point on a registered platform in its paper
// configuration (SPR quad_flat on 48 cores, ICL on one 32-core socket,
// GPUs offloading when the model does not fit).
func simulatePoint(platform string, m model.Config, batch, in, out int) (metrics.Result, error) {
	e, err := hw.PlatformByKey(platform)
	if err != nil {
		return metrics.Result{}, err
	}
	if e.Kind == hw.GPUPlatform {
		return core.SimulateGPU(*e.GPU, m, batch, in, out)
	}
	setup := core.SPRQuadFlat(0)
	if e.Key == "icl" {
		setup = core.ICLBaseline()
	}
	return core.SimulateCPU(setup, m, batch, in, out)
}

// run evaluates the whole grid in row-major order (inputs fastest).
func (g grid) run() ([]sweepRow, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	var rows []sweepRow
	for _, p := range g.platforms {
		for _, m := range g.models {
			for _, b := range g.batches {
				for _, in := range g.inputs {
					res, err := simulatePoint(p, m, b, in, g.output)
					rows = append(rows, sweepRow{
						platform: p, model: m.Name, batch: b, input: in,
						result: res, err: err,
					})
				}
			}
		}
	}
	return rows, nil
}

// csvHeader is the column list writeCSV emits.
var csvHeader = []string{"platform", "model", "batch", "input", "output",
	"ttft_ms", "tpot_ms", "e2e_s", "prefill_tok_s", "decode_tok_s",
	"e2e_tok_s", "pcie_fraction"}

// writeCSV renders successful rows as CSV (failed rows are skipped; the
// caller can report them via the returned count).
func writeCSV(w io.Writer, output int, rows []sweepRow) (skipped int, err error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return 0, err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	for _, r := range rows {
		if r.err != nil {
			skipped++
			continue
		}
		rec := []string{
			r.platform, r.model,
			strconv.Itoa(r.batch), strconv.Itoa(r.input), strconv.Itoa(output),
			f(r.result.Latency.TTFT * 1e3), f(r.result.Latency.TPOT * 1e3),
			f(r.result.Latency.E2E),
			f(r.result.Throughput.Prefill), f(r.result.Throughput.Decode),
			f(r.result.Throughput.E2E), f(r.result.PCIeFraction()),
		}
		if err := cw.Write(rec); err != nil {
			return skipped, err
		}
	}
	cw.Flush()
	return skipped, cw.Error()
}

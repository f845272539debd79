package main

// serving.go turns `go test -bench` output of the serving-path layer
// benchmarks (gateway lane iteration, API token streaming, prefix-cache
// stats, governor lease grow, trace add/finish) into BENCH_serving.json:
// per benchmark a `before` row measured at a base commit and an `after`
// row measured at this checkout, both taken in one session in alternating
// rounds (scripts/benchserving.sh) and handed over as two files.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// servingArtifact is the committed file a short run's allocations are
// held to.
const servingArtifact = "BENCH_serving.json"

// servingRow is one side of one benchmark: medians over the runs.
type servingRow struct {
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Extra holds a benchmark's own b.ReportMetric units (flushes/tok).
	Extra map[string]float64 `json:"extra,omitempty"`
}

type servingBench struct {
	Package string      `json:"package"`
	Name    string      `json:"name"`
	Before  *servingRow `json:"before,omitempty"`
	After   *servingRow `json:"after,omitempty"`
	// Speedup is before / after ns per op, when both sides exist.
	Speedup float64 `json:"speedup,omitempty"`
}

// servingReport is the BENCH_serving.json schema. Host describes the
// machine both sides ran on; Short marks a CI-sized run.
type servingReport struct {
	Host       hostID         `json:"host"`
	Short      bool           `json:"short"`
	Benchmarks []servingBench `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(-\d+)?\s+\d+\s+(.*)$`)

// parseBench reads `go test -bench -benchmem` output: the median of every
// reported unit per (package, benchmark), in first-seen order.
func parseBench(r io.Reader) ([]servingBench, error) {
	type key struct{ pkg, name string }
	samples := map[key]map[string][]float64{}
	var order []key
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return nil, fmt.Errorf("the benchmark run failed: %s", line)
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		k := key{pkg, m[1]}
		if samples[k] == nil {
			samples[k] = map[string][]float64{}
			order = append(order, k)
		}
		fields := strings.Fields(m[3]) // value unit value unit ...
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark line %q: %w", line, err)
			}
			samples[k][fields[i+1]] = append(samples[k][fields[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]servingBench, 0, len(order))
	for _, k := range order {
		row := &servingRow{}
		for unit, vs := range samples[k] {
			sort.Float64s(vs)
			switch med := median(vs); unit {
			case "ns/op":
				row.Runs, row.NsPerOp = len(vs), med
			case "allocs/op":
				row.AllocsPerOp = med
			case "B/op":
				row.BytesPerOp = med
			default:
				if row.Extra == nil {
					row.Extra = map[string]float64{}
				}
				row.Extra[unit] = med
			}
		}
		out = append(out, servingBench{Package: k.pkg, Name: k.name, After: row})
	}
	return out, nil
}

// mergeSides files the base run's rows as the before side of the change
// run's benchmarks, in the change run's order. A benchmark the base does
// not have gets no before row; one only the base has is dropped.
func mergeSides(base, change []servingBench) []servingBench {
	before := map[string]*servingRow{}
	for _, b := range base {
		before[b.Package+" "+b.Name] = b.After
	}
	out := make([]servingBench, 0, len(change))
	for _, b := range change {
		b.Before = before[b.Package+" "+b.Name]
		if b.Before != nil && b.After.NsPerOp > 0 {
			b.Speedup = b.Before.NsPerOp / b.After.NsPerOp
		}
		out = append(out, b)
	}
	return out
}

// runServing files two benchmark runs of one session, the base's and this
// checkout's, as the before and after rows of the report. A short run is
// CI's allocation gate: it fails when a benchmark allocates more per op
// than its committed `after` row. Only allocations are gated; they do not
// vary between runs, where time and bytes vary with the host.
func runServing(jsonPath string, short bool, files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("-serving takes two files, the base's and this checkout's `go test -bench` output (scripts/benchserving.sh)")
	}
	var sides [2][]servingBench // base, change
	for i, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sides[i], err = parseBench(f)
		f.Close()
		if err == nil && len(sides[i]) == 0 {
			err = fmt.Errorf("no benchmark lines")
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	var committed servingReport
	if data, err := os.ReadFile(servingArtifact); err == nil && short {
		if err := json.Unmarshal(data, &committed); err != nil {
			return fmt.Errorf("%s: %w", servingArtifact, err)
		}
	}
	old := map[string]*servingRow{}
	for _, b := range committed.Benchmarks {
		old[b.Package+" "+b.Name] = b.After
	}
	rep := servingReport{Host: thisHost(), Short: short, Benchmarks: mergeSides(sides[0], sides[1])}
	var over []string
	for _, b := range rep.Benchmarks {
		if o := old[b.Package+" "+b.Name]; o != nil && b.After.AllocsPerOp > o.AllocsPerOp {
			over = append(over, fmt.Sprintf("%s %s: %.0f allocs/op, committed %.0f",
				b.Package, b.Name, b.After.AllocsPerOp, o.AllocsPerOp))
		}
		fmt.Printf("%-28s %-40s", strings.TrimPrefix(b.Package, "repro/internal/"), b.Name)
		for _, side := range []*servingRow{b.Before, b.After} {
			if side == nil {
				fmt.Printf("  %24s", "-")
				continue
			}
			fmt.Printf("  %9.0f ns %5.0f allocs", side.NsPerOp, side.AllocsPerOp)
		}
		fmt.Println()
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("allocations above the committed %s rows:\n  %s",
			servingArtifact, strings.Join(over, "\n  "))
	}
	return nil
}

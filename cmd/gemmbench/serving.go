package main

// serving.go turns `go test -bench` output of the serving-path layer
// benchmarks (gateway lane iteration, API token streaming, prefix-cache
// stats, governor lease grow, trace add/finish) into BENCH_serving.json:
// per benchmark a `before` row measured at the parent commit and an
// `after` row measured at this one. One run fills one side; the other
// side's rows are carried over from the committed artifact.

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

// servingArtifact is the committed file the rows of the side a run does
// not measure are read from.
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
// machine of the latest run; Short marks a CI-sized one.
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

// runServing reads a benchmark run from stdin and writes the report: the
// run is the `after` side, or with before set the parent commit's.
func runServing(jsonPath string, short, before bool) error {
	measured, err := parseBench(os.Stdin)
	if err != nil {
		return err
	}
	if len(measured) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (pipe `go test -run '^$' -bench ... -benchmem` into -serving)")
	}
	var committed servingReport
	if data, err := os.ReadFile(servingArtifact); err == nil {
		if err := json.Unmarshal(data, &committed); err != nil {
			return fmt.Errorf("%s: %w", servingArtifact, err)
		}
	}
	other := map[string]servingBench{}
	for _, b := range committed.Benchmarks {
		other[b.Package+" "+b.Name] = b
	}
	rep := servingReport{Host: thisHost(), Short: short}
	for _, b := range measured {
		old := other[b.Package+" "+b.Name]
		if before {
			b.Before, b.After = b.After, old.After
		} else {
			b.Before = old.Before
		}
		if b.Before != nil && b.After != nil && b.After.NsPerOp > 0 {
			b.Speedup = b.Before.NsPerOp / b.After.NsPerOp
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
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
	if jsonPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(data, '\n'), 0o644)
}

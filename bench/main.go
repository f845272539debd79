// Command bench is the repository's benchmark: four closed-loop workloads,
// eight end-to-end metrics measured with tracing off, and a per-layer
// ledger from a separate traced run plus direct probes. Everything under
// test is built in-process from public constructors, wired as
// cmd/llmperfd wires its defaults. See README.md.
//
//	bash bench/run.sh --workload engine-decode --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setup_s is the median of repeated from-nothing constructions; one
// construction alone spreads 20–30 % between runs. A run constructs at
// least setupRepeats times and, for systems that build in milliseconds,
// keeps constructing until setupBudget seconds are spent.
const (
	setupRepeats    = 5
	setupMaxRepeats = 101
	setupBudget     = 1.0
)

// bench is one workload's driver.
type bench interface {
	// build constructs the system under test from nothing. A non-nil
	// recorder makes it a traced build.
	build(rec *recorder) error
	// warm brings the system to steady state; not measured.
	warm() error
	// run measures one closed-loop window of `seconds`; rec is non-nil on
	// the traced one.
	run(seconds float64, rec *recorder) *window
	close()
	// layers fills the workload-scoped per-layer metrics from the trace
	// invocation's untraced (base) and traced windows.
	layers(m metricSet, base, traced *window, pr probeRates)
	guards() guardRails
}

func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "engine-decode", "engine-batch":
		return newEngineBench(name, seed), nil
	case "http-stream":
		return newHTTPBench(seed), nil
	case "cluster-batch":
		return newClusterBench(seed), nil
	}
	return nil, fmt.Errorf("no workload %q", name)
}

// guardRails are counters expected to stay 0: any of them moving means
// the program reacted to sandbox noise (ejected a slow replica, shed
// load) and the workload is no longer the one described.
type guardRails struct {
	ejections, failovers, preemptions, shed, rejected float64
}

func (g guardRails) print() {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"cluster.ejections", g.ejections}, {"cluster.failovers", g.failovers},
		{"govern.preemptions", g.preemptions}, {"govern.shed", g.shed},
		{"gateway.rejected", g.rejected},
	} {
		flag := ""
		if c.v != 0 {
			flag = "   <-- expected 0: the workload was disturbed"
		}
		fmt.Printf("guard %-20s %g%s\n", c.name, c.v, flag)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	mf, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(mf.workloadNames()))
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", float64(mf.RunSeconds), "length of the measured window")
	traced := flag.Int("trace", 0, "1 = traced run: per-layer metrics; 0 = end-to-end metrics")
	traceOut := flag.String("trace-out", "", "JSONL file for the traced run's spans (default .bench_build/trace-<workload>.jsonl)")
	flag.Parse()

	if err := run(mf, *workload, *seed, *seconds, *traced != 0, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(mf manifest, name string, seed int64, seconds float64, traced bool, traceOut string) error {
	b, err := newBench(name, seed)
	if err != nil {
		return err
	}
	printHeader(name, seed, seconds, traced)
	var res result
	if traced {
		if traceOut == "" {
			traceOut = ".bench_build/trace-" + name + ".jsonl"
		}
		res, err = runTraced(b, newMetricSet(mf.PerLayer), seconds, traceOut)
	} else {
		res, err = runEndToEnd(b, newMetricSet(mf.EndToEnd), seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runEndToEnd is the untraced run: repeated constructions (the last one
// kept), warm-up, one measured window.
func runEndToEnd(b bench, m metricSet, seconds float64) (result, error) {
	var setups []float64
	var spent float64
	for len(setups) < setupRepeats || (spent < setupBudget && len(setups) < setupMaxRepeats) {
		if len(setups) > 0 {
			b.close()
			// Return the previous construction's memory, so that peak RSS
			// reflects one system and not how many were built before it.
			debug.FreeOSMemory()
		}
		start := time.Now()
		if err := b.build(nil); err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", len(setups), err)
		}
		s := time.Since(start).Seconds()
		setups = append(setups, s)
		spent += s
	}
	defer b.close()
	if err := b.warm(); err != nil {
		return result{}, err
	}
	win := b.run(seconds, nil)
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	win.endToEnd(m)
	m.set("peak_rss_mb", rss)
	m.set("setup_s", median(setups))
	return report(b, win, m), nil
}

// runTraced is the per-layer run: direct probes, then the workload at a
// quarter of its length without tracing (the baseline for tracing
// overhead and for allocation counts) and again with bench-owned spans.
func runTraced(b bench, m metricSet, seconds float64, traceOut string) (result, error) {
	rates, err := runProbes(m)
	if err != nil {
		return result{}, err
	}
	quarter := seconds / 4

	measure := func(rec *recorder) (*window, error) {
		if err := b.build(rec); err != nil {
			return nil, err
		}
		if err := b.warm(); err != nil {
			b.close()
			return nil, err
		}
		if rec != nil {
			rec.on.Store(true)
			defer rec.on.Store(false)
		}
		return b.run(quarter, rec), nil
	}
	base, err := measure(nil)
	if err != nil {
		return result{}, err
	}
	b.close()
	rec := newRecorder(1 << 20)
	traced, err := measure(rec)
	if err != nil {
		return result{}, err
	}
	defer b.close()

	b.layers(m, base, traced, rates)
	traced.runtimeLayer(m)
	m.set("bench.trace_overhead_pct", 100*(1-ratio(traced.reqPerS(), base.reqPerS())))
	if err := rec.writeJSONL(traceOut); err != nil {
		return result{}, err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(rec.spans), traceOut)
	fmt.Printf("untraced quarter: %v\n", base)
	traced.attempted += base.attempted
	traced.failed += base.failed
	if traced.firstErr == nil {
		traced.firstErr = base.firstErr
	}
	return report(b, traced, m), nil
}

// report prints the run in readable form and builds the result line.
func report(b bench, win *window, m metricSet) result {
	fmt.Printf("window: %v checksum=%016x\n", win, win.checksum)
	if win.firstErr != nil {
		fmt.Printf("first failure: %v\n", win.firstErr)
	}
	b.guards().print()
	m.print()
	return result{
		Correct:   win.failed == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   m.values,
	}
}

func printHeader(name string, seed int64, seconds float64, traced bool) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("bench: workload=%s seed=%d seconds=%g trace=%v\n", name, seed, seconds, traced)
	fmt.Printf("bench: %s GOMAXPROCS=%d cpu=%q commit=%s\n", runtime.Version(), runtime.GOMAXPROCS(0), cpuModel(), commit)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds the metrics of one run, keyed by the manifest list it
// was made from: every listed name is present (0 until set), and setting a
// name the manifest does not list is a bug.
type metricSet struct {
	values map[string]metricValue
}

func newMetricSet(catalog []metricDef) metricSet {
	m := metricSet{values: make(map[string]metricValue, len(catalog))}
	for _, d := range catalog {
		m.values[d.Name] = metricValue{Unit: d.Unit}
	}
	return m
}

func (m metricSet) set(name string, v float64) {
	cur, ok := m.values[name]
	if !ok {
		panic("bench: metric " + name + " is not in " + manifestPath)
	}
	cur.Value = v
	m.values[name] = cur
}

func (m metricSet) print() {
	names := make([]string, 0, len(m.values))
	for n := range m.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, m.values[n].Value, m.values[n].Unit)
	}
}

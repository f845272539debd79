package main

import (
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestSameSeedSameSchedule(t *testing.T) {
	for name, gen := range map[string]func(int64) any{
		"http-stream":   func(s int64) any { return httpStreamSchedule(s) },
		"cluster-batch": func(s int64) any { return clusterBatchSchedule(s) },
		"engine":        func(s int64) any { return enginePrompts(s, 8, 4, 32, benchModel.Vocab) },
	} {
		a, err := json.Marshal(gen(7))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(gen(7))
		c, _ := json.Marshal(gen(8))
		if string(a) != string(b) {
			t.Errorf("%s: seed 7 generated two different schedules", name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 generated the same schedule", name)
		}
	}
}

func TestScheduleShapes(t *testing.T) {
	for _, r := range httpStreamSchedule(1) {
		if r.In < 506 || r.In > 518 || r.Out != 64 || r.PrefixTokens != 448 || r.Group == "" {
			t.Fatalf("http-stream request out of shape: %+v", r)
		}
	}
	for _, r := range clusterBatchSchedule(1) {
		if r.In < 192 || r.In > 255 || r.Out != 32 || r.PrefixTokens != 128 || r.Class == "" || r.Client == "" {
			t.Fatalf("cluster-batch request out of shape: %+v", r)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(append([]float64(nil), xs...), c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := slope([]float64{0, 1, 2, 3}, []float64{1, 3, 5, 7}); math.Abs(got-2) > 1e-9 {
		t.Errorf("slope = %v, want 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	root := span{Name: spanRequest, Start: 0, End: 100}
	others := []span{
		{Name: spanSend, Start: 0, End: 10},
		{Name: spanHTTP, Start: 15, End: 90},
		{Name: spanBackend, Start: 20, End: 80},
		// Overlaps api.http; the deeper span owns the overlap, so only the
		// tail after the handler returned is the client's.
		{Name: spanRecv, Start: 30, End: 98},
		// Sticks out of the root (clipped) and ties with client.recv on
		// depth: the later-started span owns the overlap.
		{Name: spanDecode, Start: 96, End: 120},
	}
	got := selfTimes(root, others)
	want := map[string]int64{
		spanRequest: 5, // 10–15
		spanSend:    10,
		spanHTTP:    15, // 15–20 and 80–90
		spanBackend: 60,
		spanRecv:    6, // 90–96
		spanDecode:  4, // 96–100
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var sum int64
	for _, ns := range got {
		sum += ns
	}
	if sum != root.End-root.Start {
		t.Errorf("self times sum to %d, want the root's %d", sum, root.End-root.Start)
	}
}

func TestLaneCover(t *testing.T) {
	c := newLaneCover([]span{{Start: 30, End: 40}, {Start: 0, End: 10}, {Start: 50, End: 60}})
	for _, tc := range []struct{ start, end, want int64 }{
		{0, 100, 30}, {5, 35, 10}, {10, 30, 0}, {35, 55, 10}, {60, 70, 0}, {20, 20, 0},
	} {
		if got := c.covered(tc.start, tc.end); got != tc.want {
			t.Errorf("covered(%d, %d) = %d, want %d", tc.start, tc.end, got, tc.want)
		}
	}
}

func TestTotalSelfTimesChargesCostCalls(t *testing.T) {
	spans := []span{
		{Name: spanRequest, Req: 1, Start: 0, End: 100},
		{Name: spanRoute, Req: 1, Start: 10, End: 90},
		{Name: spanGateway, Req: 1, Lane: "r0", Start: 20, End: 80},
		{Name: spanCost, Req: laneLevelReq, Lane: "r0", Start: 30, End: 35},
		{Name: spanCost, Req: laneLevelReq, Lane: "r1", Start: 40, End: 50}, // another replica's
		{Name: spanRoute, Req: 2, Start: 0, End: 50},                        // no root: not in the window
	}
	got := totalSelfTimes(spans)
	if got.requests != 1 || got.rootNs != 100 {
		t.Fatalf("requests=%d rootNs=%d, want 1 and 100", got.requests, got.rootNs)
	}
	want := map[string]int64{spanRequest: 20, spanRoute: 20, spanGateway: 55, spanCost: 5}
	if !reflect.DeepEqual(got.ns, want) {
		t.Errorf("self = %v, want %v", got.ns, want)
	}
	if pct := got.coveragePct(); pct != 80 {
		t.Errorf("coverage = %v %%, want 80", pct)
	}
}

// benchManifest loads ../BENCHMARK.json: tests run in the package's
// directory, the harness at the root of the checkout.
func benchManifest(t *testing.T) manifest {
	t.Helper()
	mf, err := loadManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

// TestManifestIsWellFormed holds BENCHMARK.json to the limits the driver
// refuses a benchmark on before a single run.
func TestManifestIsWellFormed(t *testing.T) {
	mf := benchManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	checkMetric := func(m metricDef) {
		t.Helper()
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("unit %q of %s is not a legal unit", m.Unit, m.Name)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q, want higher or lower", m.Name, m.Better)
		}
	}

	if n := len(mf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range mf.Workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(mf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	for _, m := range mf.EndToEnd {
		checkMetric(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
	if n := len(mf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range mf.PerLayer {
		checkMetric(m)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", mf.RunSeconds)
	}
}

// TestSmoke runs every workload for 200 ms, untraced and traced, on one
// construction each: every request must pass its output check and the
// traced window's spans must account for each request's wall time.
func TestSmoke(t *testing.T) {
	mf := benchManifest(t)
	for _, w := range mf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			b, err := newBench(w.Name, 1)
			if err != nil {
				t.Fatal(err)
			}
			const seconds = 0.2
			measure := func(rec *recorder) *window {
				t.Helper()
				if err := b.build(rec); err != nil {
					t.Fatal(err)
				}
				if err := b.warm(); err != nil {
					b.close()
					t.Fatal(err)
				}
				if rec != nil {
					rec.on.Store(true)
					defer rec.on.Store(false)
				}
				win := b.run(seconds, rec)
				if win.attempted == 0 || win.failed != 0 {
					b.close()
					t.Fatalf("attempted %d, failed %d: %v", win.attempted, win.failed, win.firstErr)
				}
				return win
			}
			base := measure(nil)
			b.close()
			rec := newRecorder(1 << 16)
			traced := measure(rec)
			defer b.close()

			e2e := newMetricSet(mf.EndToEnd)
			base.endToEnd(e2e)
			for _, name := range []string{"req_s", "tok_s", "ttft_p50_ms", "tpot_p50_ms", "e2e_p90_ms", "cpu_ms_per_req"} {
				if v := e2e.values[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			if g := b.guards(); g != (guardRails{}) {
				t.Errorf("guard rails moved: %+v", g)
			}

			m := newMetricSet(mf.PerLayer)
			b.layers(m, base, traced, probeRates{gemmM1: 1e9, gemmM4: 1e9, gemmM32: 1e9})
			if pct := m.values["bench.span_coverage_pct"].Value; pct < 50 || pct > 100 {
				t.Errorf("span coverage %v %%, want within [50, 100]", pct)
			}
			self := totalSelfTimes(rec.spans)
			var sum int64
			for _, ns := range self.ns {
				sum += ns
			}
			if self.requests == 0 || sum != self.rootNs {
				t.Errorf("%d requests: layer self times sum to %d ns, request wall time is %d ns", self.requests, sum, self.rootNs)
			}
		})
	}
}

func TestProbesFillEveryProbeMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("probes take a few seconds")
	}
	mf := benchManifest(t)
	m := newMetricSet(mf.PerLayer)
	rates, err := runProbes(m)
	if err != nil {
		t.Fatal(err)
	}
	if !(rates.gemmM1 > 0 && rates.gemmM4 > 0 && rates.gemmM32 > 0) {
		t.Errorf("kernel rates not positive: %+v", rates)
	}
	probes := regexp.MustCompile(`^(kernels|prefixcache|kvpool|metrics|trace|perfmodel)\.|^govern\.(reserve|grow)|^serve\.(cost_cold|cost_hot|sim_replay)`)
	for _, d := range mf.PerLayer {
		if probes.MatchString(d.Name) && !(m.values[d.Name].Value > 0) {
			t.Errorf("probe %s = %v, want > 0", d.Name, m.values[d.Name].Value)
		}
	}
}

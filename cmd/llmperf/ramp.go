package main

// ramp.go is the overload-control load sweep (-ramp): calibrate the
// server's capacity closed-loop, then sweep open-loop offered load
// through a list of multipliers of that capacity with a three-way
// interactive/standard/batch class mix, and report per-class
// goodput-vs-offered-load. Goodput for the interactive class is
// SLO-conditioned: a request only counts if its client-measured TTFT is
// inside the target. The final greppable summary lines drive the
// `make overload-demo` A/B assertions:
//
//	interactive_goodput_ratio=NN        goodput at the top step vs the
//	                                    peak across all steps, percent
//	interactive_p99_ttft_ms_at_2x=NN.N  client p99 TTFT at the top step

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

var rampClasses = []string{"interactive", "standard", "batch"}

// loadRamp runs the sweep. steps is a comma-separated multiplier list
// ("0.5,1,2"); stepDur is the open-loop duration per step; sloMs is the
// interactive TTFT target goodput is conditioned on.
func loadRamp(stdout io.Writer, r *runner, in, out int, steps string, stepDur time.Duration, sloMs float64) error {
	mults, err := parseRampSteps(steps)
	if err != nil {
		return err
	}

	// Phase 1 — calibrate: closed-loop standard-class traffic measures
	// the sustainable completion rate with no queue growth; that is the
	// capacity the multipliers scale.
	completed := 0
	for _, o := range r.closedLoop([][]request{{{In: in, Out: out, Priority: "standard"}}}, 0, time.Now().Add(stepDur)) {
		if o.ok() {
			completed++
		}
	}
	capacity := float64(completed) / stepDur.Seconds()
	if capacity <= 0 {
		return fmt.Errorf("calibration completed no requests — is %s serving?", r.base)
	}
	fmt.Fprintf(stdout, "ramp: calibrated capacity %.1f req/s (%d closed-loop clients, %.0fs)\n",
		capacity, r.clients, stepDur.Seconds())

	// Phase 2 — sweep: open-loop arrivals at each multiplier of capacity
	// with a 1/3-each class mix. Each request streams its response to
	// measure client TTFT and carries a deadline of 4× the interactive
	// SLO, so doomed work is evicted server-side; the client gives up at
	// twice that, so a collapsed server fails requests instead of hanging
	// the step.
	deadline := time.Duration(4*sloMs) * time.Millisecond
	r.client.Timeout = 2 * deadline
	var mix []request
	for _, cls := range rampClasses {
		mix = append(mix, request{In: in, Out: out, Stream: true, Priority: cls, deadline: deadline})
	}
	var peak, lastGoodput, lastP99 float64
	for _, m := range mults {
		rate := m * capacity
		outcomes := r.openLoop(rate, stepDur, mix)
		fmt.Fprintf(stdout, "ramp step x%.2f: offered=%.1f req/s sent=%d", m, rate, len(outcomes))
		for _, cls := range rampClasses {
			var good int
			var ttfts []float64
			for _, o := range outcomes {
				if o.class != cls || !o.ok() || o.tokens == 0 {
					continue
				}
				ttfts = append(ttfts, o.ttft)
				// Interactive goodput is SLO-conditioned: a token that
				// arrived late is as useless to an interactive caller as
				// no token at all.
				if cls == "interactive" && o.ttft*1e3 > sloMs {
					continue
				}
				good++
			}
			goodput, p99 := float64(good)/stepDur.Seconds(), 0.0
			if len(ttfts) > 0 {
				sort.Float64s(ttfts)
				p99 = quantileSorted(ttfts, 0.99) * 1e3
			}
			fmt.Fprintf(stdout, " | %s goodput=%.1f/s p99_ttft=%.0fms", cls, goodput, p99)
			if cls == "interactive" {
				peak, lastGoodput, lastP99 = max(peak, goodput), goodput, p99
			}
		}
		fmt.Fprintln(stdout)
	}

	// Summary: the ratio pits the top (most overloaded) step's
	// interactive goodput against the best step's. A server that falls
	// over a cliff past saturation scores near zero; graceful overload
	// control holds it near 100.
	ratio := 0.0
	if peak > 0 {
		ratio = 100 * lastGoodput / peak
	}
	fmt.Fprintf(stdout, "interactive_goodput_ratio=%.0f\n", ratio)
	fmt.Fprintf(stdout, "interactive_p99_ttft_ms_at_2x=%.1f\n", lastP99)
	sloOK := 0
	if lastP99 > 0 && lastP99 <= sloMs {
		sloOK = 1
	}
	fmt.Fprintf(stdout, "interactive_slo_ok=%d\n", sloOK)
	return nil
}

func parseRampSteps(s string) ([]float64, error) {
	var mults []float64
	for _, f := range strings.Split(s, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || m <= 0 {
			return nil, fmt.Errorf("-ramp-steps %q: each step must be a positive multiplier", s)
		}
		mults = append(mults, m)
	}
	return mults, nil
}

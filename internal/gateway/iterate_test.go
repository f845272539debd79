package gateway

// iterate_test.go holds the lane iteration to its per-token budget: the
// allocation guard that extends serve.TestBatchIterationAllocs through
// the live driver (pricing under the watchdog, spans, emission), and the
// layer's benchmark.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/trace"
)

// sprCost is the benchmark's serving lane: the analytic SPR cost model
// (memoised, with counter analogs) for OPT-13B.
func sprCost() serve.CostModel {
	return serve.NewCPUCost(memsim.Config{CPU: hw.SPRMax9468, Cores: 48,
		Mem: memsim.Flat, Cluster: memsim.Quad}, model.OPT13B)
}

// iterGateway is a default gateway (watchdog on, sample rate 1) over the
// SPR lane.
func iterGateway() *Gateway {
	return New(Config{MaxBatch: 8, Registry: metrics.NewRegistry()}, fixedResolver(sprCost()))
}

// decodingBatch puts n prefilled sequences of out tokens into l's batch,
// so that every further g.iterate(l) is one decode step for all of them.
// It returns their traces: nil ones, which record nothing, unless traced.
func decodingBatch(tb testing.TB, g *Gateway, l *lane, n, out int, traced bool) []*trace.Trace {
	tb.Helper()
	now := time.Now()
	traces := make([]*trace.Trace, n)
	for i := range traces {
		if traced {
			traces[i] = g.tracer.Start("iterate")
		}
		j := &job{req: Request{Lane: l.key, InputLen: 512, OutputLen: out,
			Sink: func(TokenEvent) {}, Trace: traces[i]},
			ctx: context.Background(), class: overload.Standard,
			submitted: now, lastMark: now, done: make(chan jobOutcome, 1)}
		if err := l.batch.Admit(&seq{Job: attempt{j: j, mark: now}, In: 512, Out: out}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := g.iterate(l); err != nil { // the prefill iteration
		tb.Fatal(err)
	}
	return traces
}

func iterLane(tb testing.TB, g *Gateway) *lane {
	tb.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	l, err := g.newLaneLocked("spr|OPT-13B")
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// TestIterateAllocs pins the allocations one decoded token costs the lane
// at batch 8 — priced under the watchdog, delivered to a sink, with and
// without a trace — so the next per-token map, closure or goroutine shows
// up here. The priced call travels by value, so an untraced iteration
// allocates nothing; a traced one allocates its step's counter analogs
// (the *trace.Counters its spans share) once for all 8 tokens.
func TestIterateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		traced bool
		max    float64 // allocations per decoded token
	}{
		{"untraced", false, 0},
		{"traced", true, 1.0 / 8}, // the step's counter analogs
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := iterGateway()
			l := iterLane(t, g)
			defer l.wd.retire()
			const batch, runs = 8, 200
			decodingBatch(t, g, l, batch, 2*runs+64, tc.traced)
			for i := 0; i < 32; i++ { // warm the cost memo and the span buffers
				if _, err := g.iterate(l); err != nil {
					t.Fatal(err)
				}
			}
			perIter := testing.AllocsPerRun(runs, func() {
				if _, err := g.iterate(l); err != nil {
					t.Fatal(err)
				}
			})
			if got := perIter / batch; got > tc.max {
				t.Errorf("%.2f allocations per decoded token (%.0f per iteration of %d), want <= %.2f",
					got, perIter, batch, tc.max)
			} else {
				t.Logf("%.2f allocations per decoded token", got)
			}
		})
	}
}

// BenchmarkLaneIteration is one decode iteration of a live lane: plan,
// price through the resilience weave, commit, spans, emission. Requests
// are 64 tokens long, as on the http-stream workload; staging the next
// batch is not timed.
func BenchmarkLaneIteration(b *testing.B) {
	for _, batch := range []int{1, 8} {
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("batch%d/untraced", batch)
			if traced {
				name = fmt.Sprintf("batch%d/traced", batch)
			}
			b.Run(name, func(b *testing.B) {
				g := iterGateway()
				l := iterLane(b, g)
				defer l.wd.retire()
				const steps = 63
				var traces []*trace.Trace
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%steps == 0 {
						b.StopTimer()
						l.batch.Drain()
						for _, tr := range traces {
							tr.Finish()
						}
						traces = decodingBatch(b, g, l, batch, steps+2, traced)
						b.StartTimer()
					}
					if _, err := g.iterate(l); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

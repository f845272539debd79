package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kvpool"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// The scheduler golden: every batching discipline's completions, recorded
// bit for bit, so that a change to the scheduling code which moves any
// modeled timestamp by one ulp fails here. Regenerate on purpose only:
//
//	go test ./internal/serve/ -run TestSchedulerGolden -args -update-sched-golden
var updateSchedGolden = flag.Bool("update-sched-golden", false,
	"rewrite testdata/sched_golden.json from the current scheduler")

const schedGoldenPath = "testdata/sched_golden.json"

// shapeCost prices both phases as a function of batch AND length, with
// constants that are not dyadic rationals: a scheduler that prices the
// wrong shape, or sums costs in another order, lands on different bits.
type shapeCost struct{}

func (shapeCost) PrefillCost(batch, inputLen int) (float64, error) {
	b, n := float64(batch), float64(inputLen)
	return 1.3e-4*n*(1+0.3*(b-1)) + 7e-8*n*n*b, nil
}

func (shapeCost) DecodeStepCost(batch, ctxLen int) (float64, error) {
	b, n := float64(batch), float64(ctxLen)
	return 1.9e-2*(1+0.3*(b-1)) + 1.1e-5*n*b, nil
}

// goldenCase is one recorded run. Completions are in request-ID order,
// each as the Float64bits of QueueWait, TTFT, E2E and Finish.
type goldenCase struct {
	Completions  [][4]string `json:"completions,omitempty"`
	MaxIteration string      `json:"max_iteration_s,omitempty"`
	Preemptions  int         `json:"preemptions,omitempty"`
	Err          string      `json:"err,omitempty"`
}

func bitsOf(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

func recordCase(cs []Completion, err error) goldenCase {
	if err != nil {
		return goldenCase{Err: err.Error()}
	}
	var gc goldenCase
	for _, c := range cs {
		gc.Completions = append(gc.Completions, [4]string{
			bitsOf(c.QueueWait), bitsOf(c.TTFT), bitsOf(c.E2E), bitsOf(c.Finish)})
	}
	return gc
}

// goldenTrace is a seeded heavy-tailed chat trace arriving fast enough to
// keep a batch of 8 full.
func goldenTrace(seed int64) []workload.Request {
	g := workload.NewGenerator(seed).ChatTrace()
	g.MeanInputLen, g.MeanOutputLen = 256, 64
	g.ArrivalRate = 8
	return g.Trace(20)
}

// goldenPool builds a pool of exactly `blocks` 16-token blocks.
func goldenPool(t *testing.T, blocks int) *kvpool.Pool {
	t.Helper()
	cfg := model.Tiny(model.OPT)
	probe, err := kvpool.New(cfg, tensor.BF16, 16, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kvpool.New(cfg, tensor.BF16, 16, int64(blocks)*probe.BytesPerBlock())
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalBlocks() != blocks {
		t.Fatalf("pool has %d blocks, want %d", p.TotalBlocks(), blocks)
	}
	return p
}

// schedulerCases runs the whole grid on the current code.
func schedulerCases(t *testing.T) map[string]goldenCase {
	t.Helper()
	got := map[string]goldenCase{}
	for seed := int64(1); seed <= 6; seed++ {
		trace := goldenTrace(seed)
		for _, mb := range []int{1, 8} {
			for _, p := range []Policy{FCFS, Static, Continuous} {
				s := Server{Cost: shapeCost{}, Policy: p, MaxBatch: mb, BatchWait: 0.25}
				got[fmt.Sprintf("trace%d/mb%d/%s", seed, mb, p)] = recordCase(s.Run(trace))
			}
			for _, chunk := range []int{16, 64} {
				s := Server{Cost: shapeCost{}, Policy: Chunked, MaxBatch: mb, PrefillChunk: chunk}
				gc := recordCase(s.Run(trace))
				gc.MaxIteration = bitsOf(s.MaxIterationSeconds)
				got[fmt.Sprintf("trace%d/mb%d/chunk%d", seed, mb, chunk)] = gc
			}
		}
		for _, blocks := range []int{24, 48, 96, 2000} {
			for _, optimistic := range []bool{false, true} {
				s := Server{Cost: shapeCost{}, Policy: Continuous, Pool: goldenPool(t, blocks),
					MaxBatch: 8, Optimistic: optimistic}
				gc := recordCase(s.Run(trace))
				if gc.Err == "" {
					gc.Preemptions = s.Preemptions
				}
				mode := "conservative"
				if optimistic {
					mode = "optimistic"
				}
				got[fmt.Sprintf("trace%d/mb8/pool%d/%s", seed, blocks, mode)] = gc
			}
		}
	}
	return got
}

func TestSchedulerGolden(t *testing.T) {
	got := schedulerCases(t)
	if *updateSchedGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(schedGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cases)", schedGoldenPath, len(got))
		return
	}
	b, err := os.ReadFile(schedGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases run, %d recorded", len(got), len(want))
	}
	preempted, errs := 0, ""
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: recorded but not run", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: scheduler output moved\n got %+v\nwant %+v", name, g, w)
		}
		preempted += w.Preemptions
		errs += w.Err + "\n"
	}
	// The grid must keep exercising what it was built to pin: preemptions
	// and each way a request can be too large for the pool.
	if preempted == 0 {
		t.Error("golden grid records no preemption")
	}
	for _, kind := range []string{"(ctx ", "prompt (", "cannot grow"} {
		if !strings.Contains(errs, kind) {
			t.Errorf("golden grid records no %q error", kind)
		}
	}
}

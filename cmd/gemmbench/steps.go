package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
)

// maxUnattributed is the largest share of a step the engine's class
// clocks may leave unattributed before the run fails: past it, the
// classes no longer say where the step went.
const maxUnattributed = 0.10

// classTime is one operator class's part of a step.
type classTime struct {
	Class string  `json:"class"`
	Ms    float64 `json:"ms"`
	Share float64 `json:"share_of_step"`
}

// stepBreakdown is one engine step split by operator class, read off the
// engine's own clocks (engine.Session.Classes) over Steps real steps: the
// mean per step of each class's counter. The classes and UnattributedMs
// sum to MeasuredMs, the mean wall time of the same steps inside the
// engine, by construction.
type stepBreakdown struct {
	Model             string      `json:"model"`
	Step              string      `json:"step"`
	Steps             int         `json:"steps"`
	Classes           []classTime `json:"classes"`
	UnattributedMs    float64     `json:"unattributed_ms"`
	UnattributedShare float64     `json:"unattributed_share"`
	MeasuredMs        float64     `json:"measured_step_ms"`
}

// newStepBreakdown turns the counters of `steps` steps into per-step
// means, and prints them.
func newStepBreakdown(cfg model.Config, step string, steps int, t engine.ClassTimes) stepBreakdown {
	per := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(steps) }
	bd := stepBreakdown{Model: cfg.Name, Step: step, Steps: steps,
		MeasuredMs: per(t.Total), UnattributedMs: per(t.Unattributed())}
	bd.UnattributedShare = bd.UnattributedMs / bd.MeasuredMs
	fmt.Printf("\n%s %s  (mean of %d steps: %.3f ms, %.1f %% unattributed)\n",
		cfg.Name, step, steps, bd.MeasuredMs, 100*bd.UnattributedShare)
	for c := range engine.NumClasses {
		ct := classTime{Class: c.String(), Ms: per(t.Class[c])}
		ct.Share = ct.Ms / bd.MeasuredMs
		bd.Classes = append(bd.Classes, ct)
		fmt.Printf("  %-12s %8.3f ms  %5.1f %%\n", ct.Class, ct.Ms, 100*ct.Share)
	}
	return bd
}

// add sums u into t.
func add(t *engine.ClassTimes, u engine.ClassTimes) {
	t.Total += u.Total
	for c := range t.Class {
		t.Class[c] += u.Class[c]
	}
}

// stepBreakdowns breaks the benchmark's three engine steps down on each
// of stepModels: a batch-1 and a batch-4 decode step in mid-generation
// and a 4 × 32 prefill.
func stepBreakdowns(reps int) ([]stepBreakdown, error) {
	pool := kernels.NewPool(0)
	defer pool.Close()
	var bds []stepBreakdown
	for _, cfg := range stepModels {
		w, err := engine.NewWeights(cfg, 42, tensor.BF16)
		if err != nil {
			return nil, err
		}
		eng, err := engine.New(w, engine.Options{Kernel: engine.KernelTileBF16Parallel, Pool: pool})
		if err != nil {
			return nil, err
		}
		// `steps` steps of `batch` sequences decoding together from
		// decodeCtx tokens of context each, after a few untimed ones
		// (engine-batch's fused M = 4 decode is the batch-4 one). A step
		// is short: take the mean over more of them. The timed session is
		// the second of its shape, on the KV blocks and arena the first
		// released, as in a serving loop: on a new engine's fresh blocks
		// kv_write pays for first-touch page faults.
		const decodeCtx, warmSteps = 48, 4 // the middle of engine-decode's 16 → 80
		steps := 4 * reps
		for _, batch := range []int{1, 4} {
			var s *engine.Session
			var before engine.ClassTimes
			for round := 0; round < 2; round++ {
				s = eng.NewSession(batch, decodeCtx+warmSteps+steps+1)
				toks, err := eng.Prefill(s, seededPrompts(batch, decodeCtx, cfg.Vocab))
				for i := 0; i < warmSteps+steps && err == nil; i++ {
					if i == warmSteps {
						before = s.Classes()
					}
					toks, err = eng.DecodeStep(s, toks)
				}
				s.Release()
				if err != nil {
					return nil, err
				}
			}
			step := fmt.Sprintf("decode_b%d_ctx%d", batch, decodeCtx)
			bds = append(bds, newStepBreakdown(cfg, step, steps, s.Classes().Sub(before)))
		}

		// Prefill as a serving loop sees it: a new session per request, on
		// the KV blocks and arena the previous one released (hence the
		// warm-up).
		batch := seededPrompts(4, 32, cfg.Vocab)
		const warmUp = 12
		var prefill engine.ClassTimes
		for r := 0; r < warmUp+reps; r++ {
			s := eng.NewSession(4, 40)
			if _, err := eng.Prefill(s, batch); err != nil {
				return nil, err
			}
			if r >= warmUp {
				add(&prefill, s.Classes())
			}
			s.Release()
		}
		bds = append(bds, newStepBreakdown(cfg, "prefill_4x32", reps, prefill))
	}
	return bds, nil
}

package serve

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/specdec"
)

// TestSpecCPUCostMatchesItsParts holds the analytic pair to the models it
// is built from, bit for bit: verification is the specdec roofline at the
// bucketed context (at least 1) and at least one row, a draft step is the
// draft's own NewCPUCost decode step, and prefill and plain decode are the
// target's NewCPUCost, errors included.
func TestSpecCPUCostMatchesItsParts(t *testing.T) {
	setup := memsim.Config{CPU: hw.SPRMax9468, Cores: 48, Mem: memsim.Flat, Cluster: memsim.Quad}
	target, draft := model.OPT13B, model.OPT1B3
	spec := NewSpecCPUCost(setup, target, draft)
	plain, draftCost := NewCPUCost(setup, target), NewCPUCost(setup, draft)
	for _, tc := range []struct {
		batch, ctx, rows     int
		bucketed, verifyRows int
	}{
		{1, 0, 5, 1, 5},
		{1, 32, 5, 32, 5},
		{4, 33, 3, 64, 3},
		{8, 500, 2, 512, 2},
		{2, 100, 0, 128, 1},
	} {
		want, err := specdec.VerifySeconds(target, setup, tc.batch, tc.bucketed, tc.verifyRows)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := spec.VerifyCost(tc.batch, tc.ctx, tc.rows); err != nil || got != want {
			t.Errorf("VerifyCost(%d, %d, %d) = %v, %v; want %v", tc.batch, tc.ctx, tc.rows, got, err, want)
		}
		for _, p := range []struct {
			name      string
			got, want func(batch, n int) (float64, error)
		}{
			{"DraftStepCost", spec.DraftStepCost, draftCost.DecodeStepCost},
			{"DecodeStepCost", spec.DecodeStepCost, plain.DecodeStepCost},
			{"PrefillCost", spec.PrefillCost, plain.PrefillCost},
		} {
			got, err := p.got(tc.batch, tc.ctx)
			want, werr := p.want(tc.batch, tc.ctx)
			if got != want || (err == nil) != (werr == nil) {
				t.Errorf("%s(%d, %d) = %v, %v; want %v, %v", p.name, tc.batch, tc.ctx, got, err, want, werr)
			}
		}
	}

	// Only a target/draft pair prices speculation: a plain model must not
	// turn speculation on for its lane.
	for name, c := range map[string]CostModel{
		"cpu":    plain,
		"gpu":    NewGPUCost(hw.H100, target),
		"engine": NewEngineCost(tinyEngine(t)),
	} {
		if _, ok := c.(SpecCostModel); ok {
			t.Errorf("a plain %s model implements SpecCostModel", name)
		}
	}
}

package calibrate

import (
	"math"
	"testing"
)

// TestAnchorsNearTargets: with the shipped constants every anchor must
// measure within 5 % of its paper target (the bound ROADMAP quotes; the
// worst shipped anchor is 3.5 % off).
func TestAnchorsNearTargets(t *testing.T) {
	env := DefaultEnv()
	for _, a := range Anchors() {
		got, err := a.Measure(env)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		rel := math.Abs(got-a.Target) / a.Target
		if rel > 0.05 {
			t.Errorf("%s: measured %.3g vs target %.3g (%.1f%% off)",
				a.Name, got, a.Target, rel*100)
		}
	}
}

// TestShippedCalibrationNearMinimum: for every knob, the shipped setting
// (factor 1) must not be far from the sweep's best point — the loss at
// factor 1 must be within a small margin of the minimum across the sweep.
func TestShippedCalibrationNearMinimum(t *testing.T) {
	base, err := Loss(DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Knobs() {
		pts, err := SweepKnob(k, 0.6, 1.4, 9)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		best := pts[0].Loss
		for _, p := range pts {
			if p.Loss < best {
				best = p.Loss
			}
		}
		// The shipped loss must be within 0.08 absolute of the swept
		// minimum (anchors are shared, so one knob cannot fix another's
		// residual).
		if base > best+0.08 {
			t.Errorf("%s: shipped loss %.4f far above sweep minimum %.4f",
				k.Name, base, best)
		}
	}
}

// TestLossRespondsToKnobs: each knob must actually move the loss
// somewhere in its range — a dead knob means the audit is vacuous.
func TestLossRespondsToKnobs(t *testing.T) {
	base, err := Loss(DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Knobs() {
		env := DefaultEnv()
		k.Apply(&env, 0.5)
		moved, err := Loss(env)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if math.Abs(moved-base) < 1e-6 {
			t.Errorf("%s: halving the knob did not move the loss", k.Name)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	k := Knobs()[0]
	if _, err := SweepKnob(k, 1, 1, 5); err == nil {
		t.Error("degenerate range must fail")
	}
	if _, err := SweepKnob(k, 0.5, 1.5, 1); err == nil {
		t.Error("single step must fail")
	}
	if _, err := SweepKnob(k, -1, 1, 5); err == nil {
		t.Error("negative range must fail")
	}
	pts, err := SweepKnob(k, 0.8, 1.2, 3)
	if err != nil || len(pts) != 3 {
		t.Fatalf("sweep: %v %d", err, len(pts))
	}
	if pts[0].Factor != 0.8 || pts[2].Factor != 1.2 {
		t.Error("sweep endpoints wrong")
	}
}

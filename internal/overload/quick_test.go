package overload

// quick_test.go drives the brownout ladder with randomized pressure
// histories under testing/quick and checks the invariants the rest of
// the system leans on: the ladder never skips rungs in either
// direction, stays inside [LevelNominal, LevelShedBatch], and — the
// no-flapping guarantee — once pressure clears, levels step down
// monotonically to nominal and never rise again.

import (
	"testing"
	"testing/quick"
	"time"
)

func TestQuickLadderNeverSkipsRungs(t *testing.T) {
	cfg := Config{StepUp: 4 * time.Millisecond, StepDown: 4 * time.Millisecond}
	prop := func(samples []uint8) bool {
		c := New(cfg)
		now := time.Unix(0, 0)
		prev := c.Snapshot().BrownoutLevel
		for _, s := range samples {
			// Sample pressures across [0, 1] and steps across 1..8ms so
			// the sequence crosses both hysteresis timers.
			p := float64(s%101) / 100
			now = now.Add(time.Duration(1+s%8) * time.Millisecond)
			level, step := c.Evaluate(p, now)
			if step < -1 || step > 1 || level != prev+step {
				return false
			}
			if level < LevelNominal || level > LevelShedBatch {
				return false
			}
			prev = level
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLadderMonotoneStepDownAfterPressureClears(t *testing.T) {
	cfg := Config{StepUp: 4 * time.Millisecond, StepDown: 4 * time.Millisecond}
	prop := func(samples []uint8) bool {
		c := New(cfg)
		now := time.Unix(0, 0)
		// Arbitrary pressure history first — whatever state it leaves the
		// ladder in, recovery below must be monotone.
		for _, s := range samples {
			now = now.Add(time.Duration(1+s%8) * time.Millisecond)
			c.Evaluate(float64(s%101)/100, now)
		}
		prev := c.Snapshot().BrownoutLevel
		sawDown := false
		for i := 0; i < 4*(maxLevel+1); i++ {
			now = now.Add(cfg.StepDown)
			level, step := c.Evaluate(0, now)
			if step > 0 || level > prev {
				return false // climbed after pressure cleared: flapping
			}
			if step < 0 {
				sawDown = true
			}
			prev = level
		}
		// And recovery completes: enough clear samples reach nominal.
		return prev == LevelNominal && (sawDown || c.Snapshot().BrownoutLevel == LevelNominal)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLimiterStaysBounded(t *testing.T) {
	cfg := Config{MinLimit: 2, MaxLimit: 32, InitialLimit: 8,
		StandardTTFT: 50 * time.Millisecond, DecreaseCooldown: time.Millisecond}
	prop := func(ops []uint16) bool {
		c := New(cfg)
		now := time.Unix(0, 0)
		held := map[Class]int{}
		for _, op := range ops {
			cls := Class(op % uint16(numClasses))
			now = now.Add(time.Duration(op%7) * time.Millisecond)
			switch (op / 3) % 3 {
			case 0:
				if c.Acquire(cls) {
					held[cls]++
				}
			case 1:
				if held[cls] > 0 {
					c.Release(cls)
					held[cls]--
				}
			case 2:
				c.Observe(cls, time.Duration(op)*time.Millisecond, now)
			}
			st := c.Snapshot()
			if st.Limit < float64(cfg.MinLimit) || st.Limit > float64(cfg.MaxLimit) {
				return false
			}
			if st.Inflight != held[Interactive]+held[Standard]+held[Batch] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

package overload

import (
	"testing"
	"time"
)

func TestParseClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Class
		ok   bool
	}{
		{"interactive", Interactive, true},
		{"standard", Standard, true},
		{"batch", Batch, true},
		{"", 0, false},
		{"Interactive", 0, false},
		{"bulk", 0, false},
	} {
		got, err := ParseClass(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseClass(%q) error = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseClass(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if ClassOf("") != Standard || ClassOf("junk") != Standard || ClassOf("batch") != Batch {
		t.Error("ClassOf default mapping broken")
	}
}

func TestLimiterClassShares(t *testing.T) {
	c := New(Config{MinLimit: 4, MaxLimit: 10, InitialLimit: 10})
	// With limit 10: batch fits 6 slots, standard 8 (cumulative with the
	// batch slots), interactive the full 10.
	var got [numClasses]int
	fill := func(cls Class) {
		for c.Acquire(cls) {
			got[cls]++
		}
	}
	fill(Batch)
	if got[Batch] != 6 {
		t.Errorf("batch acquired %d slots at limit 10, want 6", got[Batch])
	}
	fill(Standard)
	if got[Batch]+got[Standard] != 8 {
		t.Errorf("batch+standard hold %d slots, want 8", got[Batch]+got[Standard])
	}
	fill(Interactive)
	total := got[Batch] + got[Standard] + got[Interactive]
	if total != 10 {
		t.Errorf("total slots %d, want the full limit 10", total)
	}
	// Interactive is the last class rejected and the first readmitted.
	if c.Acquire(Batch) || c.Acquire(Interactive) {
		t.Fatal("acquired past the limit")
	}
	c.Release(Batch)
	if c.Acquire(Batch) {
		t.Error("batch readmitted while the pool sits above its share")
	}
	if !c.Acquire(Interactive) {
		t.Error("interactive denied the freed slot")
	}
}

func TestAIMDLimitReactsToTTFT(t *testing.T) {
	c := New(Config{MinLimit: 2, MaxLimit: 64, InitialLimit: 16,
		StandardTTFT: 100 * time.Millisecond, DecreaseCooldown: time.Millisecond})
	now := time.Now()
	// SLO-busting samples shrink the limit multiplicatively.
	for i := 0; i < 40; i++ {
		now = now.Add(2 * time.Millisecond)
		c.Observe(Standard, time.Second, now)
	}
	st := c.Snapshot()
	if st.Limit != 2 {
		t.Errorf("limit %g after sustained SLO misses, want the floor 2", st.Limit)
	}
	// Good samples recover it additively.
	for i := 0; i < 20000; i++ {
		now = now.Add(time.Millisecond)
		c.Observe(Standard, 10*time.Millisecond, now)
	}
	if st = c.Snapshot(); st.Limit != 64 {
		t.Errorf("limit %g after sustained good samples, want the ceiling 64", st.Limit)
	}
	if st.Classes[int(Standard)].TTFTEWMAMs <= 0 {
		t.Error("TTFT EWMA not tracked")
	}
	if c.ExpectedTTFT(Standard) <= 0 {
		t.Error("ExpectedTTFT not tracked")
	}
}

func TestBrownoutLadderStepsAndHysteresis(t *testing.T) {
	c := New(Config{StepUp: 10 * time.Millisecond, StepDown: 10 * time.Millisecond})
	now := time.Now()
	// Sustained pressure climbs one rung per StepUp, never skipping.
	prev := 0
	for i := 0; i < 200 && c.Snapshot().BrownoutLevel < LevelShedBatch; i++ {
		now = now.Add(2 * time.Millisecond)
		level, step := c.Evaluate(1.0, now)
		if step > 1 || level-prev > 1 {
			t.Fatalf("ladder skipped a rung: %d -> %d", prev, level)
		}
		prev = level
	}
	if c.Snapshot().BrownoutLevel != LevelShedBatch {
		t.Fatalf("ladder stuck at %d under sustained pressure", c.Snapshot().BrownoutLevel)
	}
	// Pressure inside the hysteresis band holds the level indefinitely.
	for i := 0; i < 50; i++ {
		now = now.Add(2 * time.Millisecond)
		if level, step := c.Evaluate(0.7, now); step != 0 || level != LevelShedBatch {
			t.Fatalf("level moved to %d inside the hysteresis band", level)
		}
	}
	// Clear pressure descends one rung per StepDown back to nominal.
	for i := 0; i < 200 && c.Snapshot().BrownoutLevel > LevelNominal; i++ {
		now = now.Add(2 * time.Millisecond)
		if _, step := c.Evaluate(0.0, now); step > 0 {
			t.Fatal("ladder climbed while pressure was clear")
		}
	}
	if c.Snapshot().BrownoutLevel != LevelNominal {
		t.Fatalf("ladder stuck at %d after pressure cleared", c.Snapshot().BrownoutLevel)
	}
	if st := c.Snapshot(); st.BrownoutSteps != 2*LevelShedBatch {
		t.Errorf("step counter %d, want %d", st.BrownoutSteps, 2*LevelShedBatch)
	}
}

func TestLadderActions(t *testing.T) {
	if len(Actions(LevelNominal)) != 0 {
		t.Error("nominal level reports active degradations")
	}
	if got := Actions(LevelShedBatch); len(got) != 4 {
		t.Errorf("full ladder reports %v, want 4 actions", got)
	}
	if !ShedsClass(LevelShedBatch, Batch) || ShedsClass(LevelShedBatch, Interactive) ||
		ShedsClass(LevelEvictCache, Batch) {
		t.Error("ShedsClass gating wrong")
	}
	if CapFor(LevelCapBatch, Batch, 16) != 16 || CapFor(LevelCapBatch, Standard, 16) != 0 ||
		CapFor(LevelNoHedge, Batch, 16) != 0 {
		t.Error("CapFor gating wrong")
	}
}

func TestSnapshotShape(t *testing.T) {
	c := New(Config{})
	c.Acquire(Interactive)
	c.NoteShed(Batch)
	st := c.Snapshot()
	if !st.Enabled || st.Inflight != 1 || len(st.Classes) != int(numClasses) {
		t.Fatalf("snapshot %+v malformed", st)
	}
	if st.Classes[int(Batch)].Shed != 1 || st.Classes[int(Interactive)].Admitted != 1 {
		t.Errorf("per-class counters not reflected: %+v", st.Classes)
	}
	var nilC *Controller
	if nilC.Snapshot().Enabled || !nilC.Acquire(Batch) || nilC.Snapshot().BrownoutLevel != 0 {
		t.Error("nil controller not inert")
	}
	nilC.Release(Batch)
	nilC.Observe(Batch, time.Second, time.Now())
	nilC.NoteShed(Batch)
	if l, s := nilC.Evaluate(1, time.Now()); l != 0 || s != 0 {
		t.Error("nil controller ladder moved")
	}
}

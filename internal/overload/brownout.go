package overload

// brownout.go is the degradation ladder: under sustained pressure the
// controller climbs through reversible service degradations one rung at
// a time, and descends with hysteresis once pressure clears — never
// flapping, never skipping rungs. Each rung's action is queried by the
// layer that owns it (the cluster router stops hedging, the gateway
// caps batch outputs / evicts the prefix cache / sheds batch traffic).

import "time"

// Brownout ladder levels. The ladder always moves one rung per
// transition, so observers see every intermediate level.
const (
	// LevelNominal is normal service: no degradations active.
	LevelNominal = 0
	// LevelNoHedge disables request hedging — the cheapest reversible
	// saving: hedges burn duplicate compute exactly when there is none
	// to spare.
	LevelNoHedge = 1
	// LevelCapBatch additionally clamps batch-class max_tokens to
	// Config.BatchTokenCap; truncated responses carry
	// finish_reason "brownout".
	LevelCapBatch = 2
	// LevelEvictCache additionally evicts the prefix cache aggressively,
	// trading recomputation for reclaimable KV headroom.
	LevelEvictCache = 3
	// LevelShedBatch additionally refuses batch-class admissions
	// outright — the last rung before indiscriminate shedding.
	LevelShedBatch = 4

	maxLevel = LevelShedBatch
)

// Actions lists the degradations active at a ladder level, most recent
// rung first (for GET /v1/debug/state and logs).
func Actions(level int) []string {
	var acts []string
	if level >= LevelShedBatch {
		acts = append(acts, "shed-batch")
	}
	if level >= LevelEvictCache {
		acts = append(acts, "evict-prefix-cache")
	}
	if level >= LevelCapBatch {
		acts = append(acts, "cap-batch-tokens")
	}
	if level >= LevelNoHedge {
		acts = append(acts, "no-hedge")
	}
	return acts
}

// Evaluate advances the ladder from one pressure sample in [0, 1] taken
// at now. Pressure at or above UpThreshold sustained for StepUp climbs
// one rung; pressure at or below DownThreshold sustained for StepDown
// descends one rung; samples inside the hysteresis band hold the level
// and reset both timers, so a load oscillating around the thresholds
// cannot flap the ladder. The return values are the level after the
// sample and the step taken (-1, 0 or +1).
func (c *Controller) Evaluate(pressure float64, now time.Time) (level, step int) {
	if c == nil {
		return 0, 0
	}
	if pressure < 0 {
		pressure = 0
	}
	if pressure > 1 {
		pressure = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastPressure = pressure
	switch {
	case pressure >= c.cfg.UpThreshold:
		c.downSince = time.Time{}
		if c.upSince.IsZero() {
			c.upSince = now
		} else if now.Sub(c.upSince) >= c.cfg.StepUp && c.level < maxLevel {
			c.level++
			c.upSince = now
			c.steps++
			step = 1
			c.m.stepsUp.Inc()
			c.m.level.Set(int64(c.level))
		}
	case pressure <= c.cfg.DownThreshold:
		c.upSince = time.Time{}
		if c.downSince.IsZero() {
			c.downSince = now
		} else if now.Sub(c.downSince) >= c.cfg.StepDown && c.level > LevelNominal {
			c.level--
			c.downSince = now
			c.steps++
			step = -1
			c.m.stepsDown.Inc()
			c.m.level.Set(int64(c.level))
		}
	default:
		c.upSince = time.Time{}
		c.downSince = time.Time{}
	}
	return c.level, step
}

// ShedsClass reports whether a class is refused admission at a level:
// only batch, and only at LevelShedBatch.
func ShedsClass(level int, cls Class) bool {
	return level >= LevelShedBatch && cls == Batch
}

// CapFor returns the max_tokens clamp a level imposes on a class
// (0 = uncapped), given the configured batch cap.
func CapFor(level int, cls Class, batchCap int) int {
	if level >= LevelCapBatch && cls == Batch {
		return batchCap
	}
	return 0
}

package memsim

import (
	"testing"
	"testing/quick"

	"repro/internal/hw"
)

func sprConfig(cores int, mem MemMode, cl ClusterMode) Config {
	return Config{CPU: hw.SPRMax9468, Cores: cores, Mem: mem, Cluster: cl}
}

func mustBW(t *testing.T, c Config, fp float64) Bandwidth {
	t.Helper()
	bw, err := c.Bandwidth(fp)
	if err != nil {
		t.Fatalf("%s: %v", c.Name(), err)
	}
	return bw
}

func TestConfigNames(t *testing.T) {
	if sprConfig(48, Flat, Quad).Name() != "quad_flat" {
		t.Error("quad_flat name wrong")
	}
	if sprConfig(48, Cache, SNC4).Name() != "snc_cache" {
		t.Error("snc_cache name wrong")
	}
}

func TestValidate(t *testing.T) {
	if err := sprConfig(48, Flat, Quad).Validate(); err != nil {
		t.Error(err)
	}
	if sprConfig(0, Flat, Quad).Validate() == nil {
		t.Error("zero cores must fail")
	}
	if sprConfig(97, Flat, Quad).Validate() == nil {
		t.Error("too many cores must fail")
	}
	icl := Config{CPU: hw.ICL8352Y, Cores: 32, Mem: Flat, Cluster: Quad}
	if icl.Validate() == nil {
		t.Error("flat mode on HBM-less ICL must fail")
	}
	if (Config{CPU: hw.ICL8352Y, Cores: 32, Mem: DDROnly, Cluster: Quad}).Validate() != nil {
		t.Error("ddr mode on ICL must validate")
	}
}

func TestParseModesInvertString(t *testing.T) {
	for _, m := range []MemMode{Flat, Cache, HBMOnly, DDROnly} {
		if got, err := ParseMemMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMemMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, c := range []ClusterMode{Quad, SNC4} {
		if got, err := ParseClusterMode(c.String()); err != nil || got != c {
			t.Errorf("ParseClusterMode(%q) = %v, %v", c.String(), got, err)
		}
	}
	for _, bad := range []string{"", "FLAT", "snc4", "hbm"} {
		if _, err := ParseMemMode(bad); err == nil {
			t.Errorf("ParseMemMode(%q) must fail", bad)
		}
		if _, err := ParseClusterMode(bad); err == nil {
			t.Errorf("ParseClusterMode(%q) must fail", bad)
		}
	}
}

// TestQuadFlatBest reproduces Key Finding #2: among the four SPR
// configurations, quad_flat has the highest effective bandwidth for a
// typical working set.
func TestQuadFlatBest(t *testing.T) {
	const fp = 26 // GB, LLaMA2-13B weights
	best := "quad_flat"
	var bestBW float64
	got := ""
	for _, mem := range []MemMode{Flat, Cache} {
		for _, cl := range []ClusterMode{Quad, SNC4} {
			c := sprConfig(48, mem, cl)
			bw := mustBW(t, c, fp)
			if bw.EffectiveGBs > bestBW {
				bestBW, got = bw.EffectiveGBs, c.Name()
			}
		}
	}
	if got != best {
		t.Errorf("best config = %s, paper says %s", got, best)
	}
}

func TestFlatBeatsCacheSlightly(t *testing.T) {
	flat := mustBW(t, sprConfig(48, Flat, Quad), 26).EffectiveGBs
	cache := mustBW(t, sprConfig(48, Cache, Quad), 26).EffectiveGBs
	if flat <= cache {
		t.Errorf("flat (%.0f) must beat cache (%.0f)", flat, cache)
	}
	if flat > cache*1.25 {
		t.Errorf("flat advantage implausibly large: %.0f vs %.0f", flat, cache)
	}
}

func TestSNCPenalty(t *testing.T) {
	quad := mustBW(t, sprConfig(48, Flat, Quad), 26)
	snc := mustBW(t, sprConfig(48, Flat, SNC4), 26)
	if snc.EffectiveGBs >= quad.EffectiveGBs {
		t.Error("unmanaged SNC must lose to quad")
	}
	if snc.RemoteFraction <= quad.RemoteFraction {
		t.Error("SNC must raise the remote-access fraction (Fig 15)")
	}
}

// TestHBMSplit: working sets beyond 64 GB HBM spill to DDR in flat mode,
// dropping effective bandwidth (the OPT-66B case).
func TestHBMSplit(t *testing.T) {
	small := mustBW(t, sprConfig(48, Flat, Quad), 26)
	if small.HBMFraction != 1 {
		t.Errorf("26 GB should be fully HBM-resident, got %.2f", small.HBMFraction)
	}
	big := mustBW(t, sprConfig(48, Flat, Quad), 132)
	if big.HBMFraction >= 0.6 || big.HBMFraction <= 0.3 {
		t.Errorf("132 GB HBM fraction = %.2f, want 64/132≈0.48", big.HBMFraction)
	}
	if big.EffectiveGBs >= small.EffectiveGBs {
		t.Error("DDR spill must reduce effective bandwidth")
	}
}

// TestHBMOnlyCapacity: HBM-only mode must reject working sets over 64 GB.
func TestHBMOnlyCapacity(t *testing.T) {
	if _, err := sprConfig(48, HBMOnly, Quad).Bandwidth(70); err == nil {
		t.Error("HBM-only must reject 70 GB on one socket")
	}
	bw := mustBW(t, sprConfig(48, HBMOnly, Quad), 30)
	if bw.HBMFraction != 1 {
		t.Error("HBM-only must serve everything from HBM")
	}
}

// TestCoreScaling: decode bandwidth grows with cores and saturates;
// calibrated so 48 cores ≈ 2.2× the bandwidth of 12 (Fig 14's decode).
func TestCoreScaling(t *testing.T) {
	bw12 := mustBW(t, sprConfig(12, Flat, Quad), 26).EffectiveGBs
	bw24 := mustBW(t, sprConfig(24, Flat, Quad), 26).EffectiveGBs
	bw48 := mustBW(t, sprConfig(48, Flat, Quad), 26).EffectiveGBs
	if !(bw12 < bw24 && bw24 < bw48) {
		t.Errorf("bandwidth not monotone in cores: %v %v %v", bw12, bw24, bw48)
	}
	if r := bw48 / bw12; r < 1.9 || r > 2.5 {
		t.Errorf("48/12-core bandwidth ratio = %.2f, calibrated target ≈2.2", r)
	}
}

// Test96CoreRegression: spanning both sockets routes half the traffic over
// UPI and regresses effective bandwidth below the single-socket peak
// (Fig 16, Key Finding #3).
func Test96CoreRegression(t *testing.T) {
	bw48 := mustBW(t, sprConfig(48, Flat, Quad), 26)
	bw96 := mustBW(t, sprConfig(96, Flat, Quad), 26)
	if bw96.EffectiveGBs >= bw48.EffectiveGBs {
		t.Errorf("96 cores (%.0f GB/s) must regress vs 48 (%.0f GB/s)",
			bw96.EffectiveGBs, bw48.EffectiveGBs)
	}
	if bw96.UPIFraction == 0 {
		t.Error("96-core run must report UPI traffic")
	}
}

// TestCapacitySpill: a footprint beyond one socket's 320 GB spills over
// UPI even on a single socket (§VI NUMA discussion).
func TestCapacitySpill(t *testing.T) {
	bw := mustBW(t, sprConfig(48, Flat, Quad), 400)
	if bw.UPIFraction <= 0 {
		t.Error("oversized footprint must spill over UPI")
	}
	small := mustBW(t, sprConfig(48, Flat, Quad), 100)
	if bw.EffectiveGBs >= small.EffectiveGBs {
		t.Error("spill must reduce bandwidth")
	}
}

func TestComputeScale(t *testing.T) {
	full := sprConfig(48, Flat, Quad).ComputeScale()
	if full != 1 {
		t.Errorf("full-socket compute scale = %v, want 1", full)
	}
	half := sprConfig(24, Flat, Quad).ComputeScale()
	if half < 0.4 || half > 0.65 {
		t.Errorf("24-core compute scale = %v", half)
	}
	// 12→48 cores must give the paper's ~2.93× prefill speedup.
	if r := full / sprConfig(12, Flat, Quad).ComputeScale(); r < 2.7 || r > 3.2 {
		t.Errorf("48/12-core compute ratio = %.2f, want ≈2.93", r)
	}
	// Two sockets: more raw compute but heavy sync discount.
	two := sprConfig(96, Flat, Quad).ComputeScale()
	if two <= full {
		t.Error("96 cores should still raise raw compute scale")
	}
	if two >= 1.9 {
		t.Errorf("96-core compute scale %.2f should be well below 2× (UPI sync)", two)
	}
}

func TestBandwidthPositiveProperty(t *testing.T) {
	f := func(fpRaw uint16, coresRaw uint8) bool {
		fp := float64(fpRaw%500) + 0.5
		cores := int(coresRaw%96) + 1
		bw, err := sprConfig(cores, Flat, Quad).Bandwidth(fp)
		if err != nil {
			return false
		}
		return bw.EffectiveGBs > 0 &&
			bw.HBMFraction >= 0 && bw.HBMFraction <= 1 &&
			bw.RemoteFraction >= 0 && bw.RemoteFraction <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthErrors(t *testing.T) {
	if _, err := sprConfig(48, Flat, Quad).Bandwidth(0); err == nil {
		t.Error("zero footprint must error")
	}
	if _, err := sprConfig(0, Flat, Quad).Bandwidth(10); err == nil {
		t.Error("invalid config must error")
	}
}

func TestModeStrings(t *testing.T) {
	if Flat.String() != "flat" || Cache.String() != "cache" ||
		HBMOnly.String() != "hbm-only" || DDROnly.String() != "ddr" {
		t.Error("mem mode names wrong")
	}
	if Quad.String() != "quad" || SNC4.String() != "snc" {
		t.Error("cluster mode names wrong")
	}
}

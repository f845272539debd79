package main

import (
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: repro/internal/gateway
cpu: some CPU
BenchmarkLaneIteration/batch1/untraced-2         	    2000	       700.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkLaneIteration/batch1/untraced-2         	    2000	       900.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkLaneIteration/batch1/untraced-2         	    2000	       800.0 ns/op	      16 B/op	       1 allocs/op
PASS
ok  	repro/internal/gateway	1.234s
pkg: repro/internal/api
BenchmarkStreamTokens-16  	    2000	      1900 ns/op	         1.500 flushes/tok	     120 B/op	       3 allocs/op
BenchmarkStreamTokens-16  	    2000	      2100 ns/op	         0.500 flushes/tok	     100 B/op	       3 allocs/op
PASS
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d benchmarks, want 2: %+v", len(got), got)
	}
	lane, stream := got[0], got[1]
	if lane.Package != "repro/internal/gateway" || lane.Name != "BenchmarkLaneIteration/batch1/untraced" {
		t.Errorf("first benchmark %s %s, want the sub-benchmark's full name without its -N suffix", lane.Package, lane.Name)
	}
	if r := lane.After; r.Runs != 3 || r.NsPerOp != 800 || r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Errorf("lane row %+v, want 3 runs and medians 800 ns, 0 B, 0 allocs", *r)
	}
	if stream.Package != "repro/internal/api" || stream.Name != "BenchmarkStreamTokens" {
		t.Errorf("second benchmark %s %s", stream.Package, stream.Name)
	}
	if r := stream.After; r.Runs != 2 || r.NsPerOp != 2000 || r.BytesPerOp != 110 || r.AllocsPerOp != 3 ||
		r.Extra["flushes/tok"] != 1 {
		t.Errorf("stream row %+v, want medians of two runs and the flushes/tok unit kept", *r)
	}
	if lane.Before != nil || stream.Before != nil {
		t.Error("one run filled a before row")
	}

	for _, fail := range []string{"--- FAIL: BenchmarkStats2k", "FAIL\trepro/internal/govern [build failed]"} {
		if _, err := parseBench(strings.NewReader(benchOut + fail + "\n")); err == nil {
			t.Errorf("output ending in %q parsed without an error", fail)
		}
	}
}

func TestMergeSides(t *testing.T) {
	row := func(ns float64) *servingRow { return &servingRow{Runs: 5, NsPerOp: ns} }
	base := []servingBench{
		{Package: "p", Name: "BenchmarkA", After: row(200)},
		{Package: "p", Name: "BenchmarkGone", After: row(50)},
	}
	change := []servingBench{
		{Package: "p", Name: "BenchmarkA", After: row(100)},
		{Package: "p", Name: "BenchmarkNew", After: row(10)},
	}
	got := mergeSides(base, change)
	if len(got) != 2 || got[0].Name != "BenchmarkA" || got[1].Name != "BenchmarkNew" {
		t.Fatalf("merged %+v, want the change run's benchmarks in its order", got)
	}
	if a := got[0]; a.Before == nil || a.Before.NsPerOp != 200 || a.After.NsPerOp != 100 || a.Speedup != 2 {
		t.Errorf("BenchmarkA merged as %+v, want before 200 ns, after 100 ns, speedup 2", a)
	}
	if n := got[1]; n.Before != nil || n.Speedup != 0 {
		t.Errorf("BenchmarkNew, missing at the base, merged as %+v: want no before row and no speedup", n)
	}
}

// report is a synthetic amx-host report with one kernel point.
func report(pt kernelPoint) *benchReport {
	rep := &benchReport{BelowSIMD: "avx512", KernelSweep: []kernelPoint{pt}}
	rep.Host.SIMD = "amx"
	rep.Host.Mixes = []mixCeiling{
		{Mix: "go", Ceiling: 4}, {Mix: "avx512-muladd", Ceiling: 150}, {Mix: "amx-bf16", Ceiling: 2800}}
	return rep
}

func TestHoldToCeilings(t *testing.T) {
	pt := kernelPoint{Tier: "tile-bf16", M: 8, K: 256, N: 1024,
		PackedScalar: kernelRate{Mix: "go", GFLOPs: 3},
		PackedBelow:  &kernelRate{Mix: "avx512-muladd", GFLOPs: 100},
		Packed:       kernelRate{Mix: "amx-bf16", GFLOPs: 2800 * 1.04}}
	rep := report(pt)
	if err := rep.holdToCeilings(); err != nil {
		t.Errorf("104 %% of the ceiling failed: %v", err)
	}
	if got := rep.KernelSweep[0].PackedBelow.PctMulAdd; got < 66 || got > 67 {
		t.Errorf("packed_below reads %.1f %% of its ceiling, want 66.7", got)
	}
	pt.PackedBelow = &kernelRate{Mix: "avx512-muladd", GFLOPs: 150 * 1.06}
	err := report(pt).holdToCeilings()
	if err == nil || !strings.Contains(err.Error(), "avx512-muladd") {
		t.Errorf("the level below at 106 %% of its ceiling: got %v, want an error naming its mix", err)
	}
}

func TestLevelsInOrder(t *testing.T) {
	pt := func(m int, belowMix string, belowUs, shippedUs float64) kernelPoint {
		return kernelPoint{Tier: "blocked-fp32", M: m, K: 1024, N: 4096,
			PackedScalar: kernelRate{Mix: "go", Seconds: 1000e-6},
			PackedBelow:  &kernelRate{Mix: belowMix, Seconds: belowUs * 1e-6},
			Packed:       kernelRate{Mix: "avx512-muladd", Seconds: shippedUs * 1e-6}}
	}
	for _, c := range []struct {
		name string
		pt   kernelPoint
		fail bool
	}{
		{"shipped ahead", pt(4, "avx2-muladd", 80, 40), false},
		{"different mix, the level below ahead", pt(4, "avx2-muladd", 40, 80), true},
		{"same mix, the level below ahead", pt(4, "avx512-muladd", 40, 80), false},
		{"same mix, the Go loop ahead", pt(4, "avx512-muladd", 40, 2000), true},
		{"the level below behind the Go loop", pt(4, "avx2-muladd", 2000, 40), true},
		{"M = 1 is not held", pt(1, "avx2-muladd", 40, 80), false},
	} {
		if err := report(c.pt).levelsInOrder(); (err != nil) != c.fail {
			t.Errorf("%s: levelsInOrder() = %v, want failure %v", c.name, err, c.fail)
		}
	}
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4})
	if err != nil || math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean = %v, %v", g, err)
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Error("negative value must error")
	}
	if g, err := GeoMean(nil); g != 0 || err != nil {
		t.Error("empty geomean must be 0, nil")
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		min := math.Inf(1)
		for i, r := range raw {
			xs[i] = float64(r) + 1
			min = math.Min(min, xs[i])
		}
		g, err := GeoMean(xs)
		if err != nil {
			return false
		}
		return g >= min-1e-9 && g <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMax(t *testing.T) {
	if Max([]float64{5, 1, 3}) != 5 {
		t.Error("max wrong")
	}
}

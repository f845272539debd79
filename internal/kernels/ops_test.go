package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		x := make([]float32, len(vals))
		for i, v := range vals {
			if v != v || math.IsInf(float64(v), 0) {
				return true
			}
			// Clamp to a sane logit range.
			x[i] = float32(math.Mod(float64(v), 50))
		}
		Softmax(x)
		var sum float64
		for _, v := range x {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	y := []float32{101, 102, 103, 104}
	Softmax(x)
	Softmax(y)
	for i := range x {
		if math.Abs(float64(x[i]-y[i])) > 1e-5 {
			t.Fatalf("softmax not shift invariant: %v vs %v", x, y)
		}
	}
}

func TestSoftmaxOverflowSafe(t *testing.T) {
	x := []float32{1e30, 1e30}
	Softmax(x)
	if x[0] != 0.5 || x[1] != 0.5 {
		t.Errorf("softmax overflowed: %v", x)
	}
	Softmax(nil) // must not panic
}

func TestLayerNormZeroMeanUnitVar(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 64
	x := make([]float32, n)
	gain := make([]float32, n)
	bias := make([]float32, n)
	for i := range x {
		x[i] = float32(r.NormFloat64()*3 + 7)
		gain[i] = 1
	}
	LayerNorm(x, gain, bias, 1e-5)
	var mean, variance float64
	for _, v := range x {
		mean += float64(v)
	}
	mean /= float64(n)
	for _, v := range x {
		variance += (float64(v) - mean) * (float64(v) - mean)
	}
	variance /= float64(n)
	if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
		t.Errorf("layernorm mean=%g var=%g", mean, variance)
	}
}

func TestLayerNormGainBias(t *testing.T) {
	x := []float32{-1, 1}
	LayerNorm(x, []float32{2, 2}, []float32{10, 10}, 0)
	if math.Abs(float64(x[0]-8)) > 1e-4 || math.Abs(float64(x[1]-12)) > 1e-4 {
		t.Errorf("gain/bias wrong: %v", x)
	}
}

func TestRMSNormUnitRMS(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := 32
	x := make([]float32, n)
	gain := make([]float32, n)
	for i := range x {
		x[i] = float32(r.NormFloat64() * 5)
		gain[i] = 1
	}
	RMSNorm(x, gain, 0)
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	rms := math.Sqrt(ss / float64(n))
	if math.Abs(rms-1) > 1e-3 {
		t.Errorf("rmsnorm rms=%g", rms)
	}
}

func TestActivations(t *testing.T) {
	x := []float32{-2, -0.5, 0, 0.5, 2}
	relu := append([]float32(nil), x...)
	ReLU(relu)
	want := []float32{0, 0, 0, 0.5, 2}
	for i := range want {
		if relu[i] != want[i] {
			t.Errorf("relu[%d] = %v, want %v", i, relu[i], want[i])
		}
	}

	silu := append([]float32(nil), x...)
	SiLU(silu)
	// silu(0)=0; silu(x)≈x for large x; silu is bounded below.
	if silu[2] != 0 {
		t.Errorf("silu(0) = %v", silu[2])
	}
	if math.Abs(float64(silu[4]-2/(1+float32(math.Exp(-2))))) > 1e-5 {
		t.Errorf("silu(2) = %v", silu[4])
	}
}

func TestRoPEPreservesNorm(t *testing.T) {
	// Rotation must preserve vector length for any position.
	f := func(seed int64, pos uint16) bool {
		r := rand.New(rand.NewSource(seed))
		d := 8
		x := make([]float32, d)
		for i := range x {
			x[i] = float32(r.NormFloat64())
		}
		var before float64
		for _, v := range x {
			before += float64(v) * float64(v)
		}
		RoPE(x, int(pos%4096), d)
		var after float64
		for _, v := range x {
			after += float64(v) * float64(v)
		}
		return math.Abs(before-after) < 1e-3*(before+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRoPEPositionZeroIsIdentity(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	want := append([]float32(nil), x...)
	RoPE(x, 0, 4)
	for i := range want {
		if math.Abs(float64(x[i]-want[i])) > 1e-6 {
			t.Errorf("RoPE(pos=0) changed input: %v", x)
		}
	}
}

func TestAddBiasAddScale(t *testing.T) {
	x := []float32{1, 2}
	AddBias(x, []float32{10, 20})
	if x[0] != 11 || x[1] != 22 {
		t.Errorf("AddBias: %v", x)
	}
	Add(x, []float32{1, 1})
	if x[0] != 12 || x[1] != 23 {
		t.Errorf("Add: %v", x)
	}
}

func TestDotArgmax(t *testing.T) {
	if Dot([]float32{1, 2, 3}, []float32{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if Argmax([]float32{0.1, 0.9, 0.5}) != 1 {
		t.Error("Argmax wrong")
	}
}

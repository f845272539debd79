package kernels

import "math"

// Softmax computes an in-place numerically stable softmax over x.
func Softmax(x []float32) {
	if len(x) == 0 {
		return
	}
	maxV := x[0]
	for _, v := range x[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float32
	for i, v := range x {
		e := float32(math.Exp(float64(v - maxV)))
		x[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range x {
		x[i] *= inv
	}
}

// LayerNorm normalizes x in place to zero mean and unit variance, then
// applies elementwise gain and bias. eps guards the variance. OPT models
// use LayerNorm.
func LayerNorm(x, gain, bias []float32, eps float32) {
	n := float32(len(x))
	var mean float32
	for _, v := range x {
		mean += v
	}
	mean /= n
	var variance float32
	for _, v := range x {
		d := v - mean
		variance += d * d
	}
	variance /= n
	inv := 1 / float32(math.Sqrt(float64(variance+eps)))
	for i := range x {
		x[i] = (x[i]-mean)*inv*gain[i] + bias[i]
	}
}

// RMSNorm applies root-mean-square normalization with gain, the
// normalization used by LLaMA-2.
func RMSNorm(x, gain []float32, eps float32) {
	var ss float32
	for _, v := range x {
		ss += v * v
	}
	inv := 1 / float32(math.Sqrt(float64(ss/float32(len(x))+eps)))
	for i := range x {
		x[i] = x[i] * inv * gain[i]
	}
}

// SiLU applies x·sigmoid(x) in place (LLaMA-2 FFN activation).
func SiLU(x []float32) {
	for i, v := range x {
		x[i] = v / (1 + float32(math.Exp(float64(-v))))
	}
}

// RoPE applies rotary position embedding in place to a head vector of even
// dimension headDim at sequence position pos, using the standard base-10000
// frequencies (LLaMA-2 attention).
func RoPE(x []float32, pos, headDim int) {
	for i := 0; i < headDim; i += 2 {
		theta := float64(pos) * math.Pow(10000, -float64(i)/float64(headDim))
		sin, cos := math.Sincos(theta)
		a, b := x[i], x[i+1]
		x[i] = a*float32(cos) - b*float32(sin)
		x[i+1] = a*float32(sin) + b*float32(cos)
	}
}

// Dot returns the inner product of equal-length a and b.
func Dot(a, b []float32) float32 {
	var sum float32
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// Argmax returns the index of the largest element (greedy sampling).
func Argmax(x []float32) int {
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

package kernels

import "math"

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

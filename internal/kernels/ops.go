package kernels

import "math"

// RoPE applies rotary position embedding in place to a head vector of even
// dimension headDim at sequence position pos, using the standard base-10000
// frequencies (LLaMA-2 attention).
func RoPE(x []float32, pos, headDim int) {
	for i := 0; i < headDim; i += 2 {
		theta := float64(pos) * math.Pow(10000, -float64(i)/float64(headDim))
		sin, cos := math.Sincos(theta)
		rotate(x[i:i+2], float32(cos), float32(sin))
	}
}

// RoPETable returns RoPE's rotations at positions 0..maxSeq-1 as rows of
// headDim values, (cos, sin) per pair: RoPE of (1, 0, 1, 0, …) leaves
// exactly the float32 values it multiplies by.
func RoPETable(maxSeq, headDim int) []float32 {
	t := make([]float32, maxSeq*headDim)
	for pos := 0; pos < maxSeq; pos++ {
		row := t[pos*headDim : (pos+1)*headDim]
		for i := 0; i < headDim; i += 2 {
			row[i] = 1
		}
		RoPE(row, pos, headDim)
	}
	return t
}

// RoPERotate applies one RoPETable row in place: RoPE at that row's
// position, bit for bit, without a Pow and a Sincos per pair.
func RoPERotate(x, rot []float32) {
	for i := 0; i < len(x); i += 2 {
		rotate(x[i:i+2], rot[i], rot[i+1])
	}
}

// rotate turns the pair p by the angle (cos, sin). Each product is rounded
// to float32, never fused into a multiply-add, so RoPE and RoPERotate agree
// whatever the compiler may fuse.
func rotate(p []float32, cos, sin float32) {
	a, b := p[0], p[1]
	p[0] = float32(a*cos) - float32(b*sin)
	p[1] = float32(a*sin) + float32(b*cos)
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

package tensor

import "math"

// BFloat16 is a software bfloat16 value: the upper 16 bits of an IEEE-754
// binary32. Conversions use round-to-nearest-even, matching the behaviour
// of Intel AMX/AVX512-BF16 conversion instructions (VCVTNE2PS2BF16).
type BFloat16 uint16

// ToBF16 converts an FP32 value to bfloat16 with round-to-nearest-even.
// NaN payloads are quieted so that the result is still NaN after
// truncation.
func ToBF16(f float32) BFloat16 {
	bits := math.Float32bits(f)
	if f != f { // NaN: force a quiet NaN that survives truncation.
		return BFloat16(bits>>16 | 0x0040)
	}
	// Round to nearest even on the truncated 16 bits.
	rounding := uint32(0x7fff + (bits>>16)&1)
	return BFloat16((bits + rounding) >> 16)
}

// Float32 widens a bfloat16 back to FP32 exactly (the mapping is lossless).
func (b BFloat16) Float32() float32 {
	return math.Float32frombits(uint32(b) << 16)
}

// RoundBF16 round-trips an FP32 value through bfloat16, yielding the value
// an AMX tile would actually hold. Kernels use it to emulate BF16 inputs
// while accumulating in FP32, exactly as TMUL does.
func RoundBF16(f float32) float32 {
	return ToBF16(f).Float32()
}

// QuantizeInt8 quantizes src symmetrically to int8 with a single
// per-tensor scale, returning the quantized values and the scale such that
// src[i] ~= scale * q[i]. A zero tensor gets scale 1 to keep dequantization
// well-defined.
func QuantizeInt8(src []float32) (q []int8, scale float32) {
	q = make([]int8, len(src))
	scale = QuantizeInt8Into(q, src)
	return q, scale
}

// QuantizeInt8Into quantizes src into the caller-provided dst (which must
// be at least len(src) long), returning the per-tensor scale. It is the
// allocation-free variant of QuantizeInt8 used by the decode hot path,
// where activations are re-quantized every token into arena scratch.
func QuantizeInt8Into(dst []int8, src []float32) (scale float32) {
	var maxAbs float32
	for _, v := range src {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range src {
			dst[i] = 0
		}
		return 1
	}
	scale = maxAbs / 127
	inv := 1 / scale
	for i, v := range src {
		r := v * inv
		// Round half away from zero, as VNNI/AMX quantization pipelines do.
		if r >= 0 {
			r += 0.5
		} else {
			r -= 0.5
		}
		n := int32(r)
		if n > 127 {
			n = 127
		} else if n < -127 {
			n = -127
		}
		dst[i] = int8(n)
	}
	return scale
}

// DequantizeInt8 expands q back to float32 using scale.
func DequantizeInt8(q []int8, scale float32) []float32 {
	dst := make([]float32, len(q))
	for i, v := range q {
		dst[i] = float32(v) * scale
	}
	return dst
}

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

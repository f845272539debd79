package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBF16ExactValues(t *testing.T) {
	cases := []struct {
		in   float32
		want float32
	}{
		{0, 0},
		{1, 1},
		{-1, -1},
		{0.5, 0.5},
		{2, 2},
		{256, 256},
		{1.0 / 3.0, 0.33398438}, // nearest bf16 to 1/3
	}
	for _, c := range cases {
		got := RoundBF16(c.in)
		if got != c.want {
			t.Errorf("RoundBF16(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBF16RoundTripExactForBF16Values(t *testing.T) {
	// Any value already representable in bf16 must round-trip exactly.
	for bits := 0; bits < 1<<16; bits++ {
		b := BFloat16(bits)
		f := b.Float32()
		if f != f { // skip NaN: compared by bit pattern below
			back := ToBF16(f)
			if back.Float32() != back.Float32() {
				continue // NaN preserved as NaN
			}
			t.Fatalf("NaN %#04x did not round-trip to NaN", bits)
		}
		if math.IsInf(float64(f), 0) {
			if got := ToBF16(f); got != b {
				t.Fatalf("Inf %#04x -> %#04x", bits, got)
			}
			continue
		}
		if got := ToBF16(f); got != b {
			t.Fatalf("bf16 %#04x (%v) round-tripped to %#04x", bits, f, got)
		}
	}
}

func TestBF16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-8 is exactly halfway between 1.0 and the next bf16 value
	// (1 + 2^-7); ties go to even mantissa, i.e. 1.0.
	half := float32(1 + 1.0/256)
	if got := RoundBF16(half); got != 1.0 {
		t.Errorf("halfway value rounded to %v, want 1.0 (ties-to-even)", got)
	}
	// 1 + 3*2^-8 is halfway between 1+2^-7 and 1+2^-6; even is 1+2^-6.
	half2 := float32(1 + 3.0/256)
	if got := RoundBF16(half2); got != float32(1+1.0/64) {
		t.Errorf("halfway value rounded to %v, want %v", got, 1+1.0/64)
	}
}

func TestBF16Monotone(t *testing.T) {
	// Property: conversion preserves ordering (weakly).
	f := func(a, b float32) bool {
		if a != a || b != b || math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true
		}
		if a <= b {
			return RoundBF16(a) <= RoundBF16(b)
		}
		return RoundBF16(a) >= RoundBF16(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBF16RelativeError(t *testing.T) {
	// Property: for normal floats, relative error is bounded by 2^-8.
	f := func(a float32) bool {
		if a != a || math.IsInf(float64(a), 0) {
			return true
		}
		if abs := math.Abs(float64(a)); abs < 1e-30 || abs > 1e30 {
			return true // avoid subnormal edge cases
		}
		r := RoundBF16(a)
		rel := math.Abs(float64(r-a)) / math.Abs(float64(a))
		return rel <= 1.0/256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDTypeSizes(t *testing.T) {
	if FP32.Size() != 4 || FP16.Size() != 2 || BF16.Size() != 2 || INT8.Size() != 1 {
		t.Error("dtype sizes wrong")
	}
	if BF16.String() != "bf16" || INT8.String() != "int8" || FP32.String() != "fp32" || FP16.String() != "fp16" {
		t.Error("dtype names wrong")
	}
}

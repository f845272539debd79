// Package tensor provides the numeric foundation for the functional
// inference engine: data types (FP32, BF16, FP16 sizing, INT8), a software
// implementation of bfloat16 with round-to-nearest-even semantics matching
// Intel AMX tile inputs, and symmetric INT8 quantization.
package tensor

import "fmt"

// DType identifies a numeric element type. The simulator uses DTypes for
// footprint arithmetic; the functional engine uses them to select storage
// and kernel paths.
type DType int

const (
	// FP32 is IEEE-754 binary32, the accumulate type of AMX TMUL.
	FP32 DType = iota
	// FP16 is IEEE-754 binary16. The engine does not compute in FP16, but
	// the paper sizes model footprints in FP16 (Fig 6), so it participates
	// in sizing arithmetic.
	FP16
	// BF16 is bfloat16: 1 sign, 8 exponent, 7 mantissa bits. It is the
	// primary AMX input type and the dtype used for all inference
	// experiments in the paper.
	BF16
	// INT8 is a signed 8-bit integer with a per-tensor scale, the second
	// AMX TMUL input type.
	INT8
)

// Size returns the size of one element in bytes.
func (d DType) Size() int {
	switch d {
	case FP32:
		return 4
	case FP16, BF16:
		return 2
	case INT8:
		return 1
	default:
		panic(fmt.Sprintf("tensor: unknown dtype %d", int(d)))
	}
}

// String returns the conventional lowercase name of the dtype.
func (d DType) String() string {
	switch d {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case BF16:
		return "bf16"
	case INT8:
		return "int8"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

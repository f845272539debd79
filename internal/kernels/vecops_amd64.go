package kernels

// AVX2 routines for the vector ops (vecops_amd64.s). n is a positive
// multiple of eight everywhere; the callers in vecops.go peel the tail.

//go:noescape
func reluVec(x *float32, n int)

//go:noescape
func addVec(dst, src *float32, n int)

// roundBF16Vec also folds the rounded values' magnitudes into lohi (see
// the routine).
//
//go:noescape
func roundBF16Vec(dst, src *float32, n int, lohi *[16]uint32)

// dotRowsVec computes `groups` groups of eight scores: key row r starts
// strideBytes·r bytes past rows and holds cols (a positive multiple of
// eight) values.
//
//go:noescape
func dotRowsVec(q *float32, cols int, rows *float32, strideBytes, groups int, scale float32, out *float32)

// accumRows32 and accumRows8 add Σ_i w[i]·row_i to 32 or 8 columns of out,
// n ≥ 1 rows strideBytes apart.
//
//go:noescape
func accumRows32(out, w, rows *float32, strideBytes, n int)

//go:noescape
func accumRows8(out, w, rows *float32, strideBytes, n int)

// The row ops (rowops.go). softmaxVec, layerNormVec and rmsNormVec take a
// whole row, n ≥ 1, its tail through a mask; siluVec and exp32Vec take a
// positive multiple of eight. exp32Vec is the vector Exp32 alone, which
// the tests sweep.

//go:noescape
func softmaxVec(x *float32, n int)

//go:noescape
func layerNormVec(dst, x, gain, bias *float32, n int, eps float32)

//go:noescape
func rmsNormVec(dst, x, gain *float32, n int, eps float32)

//go:noescape
func siluVec(x *float32, n int)

//go:noescape
func exp32Vec(dst, src *float32, n int)

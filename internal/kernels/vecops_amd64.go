package kernels

// AVX2 routines for the vector ops (vecops_amd64.s). n is a positive
// multiple of eight everywhere; the callers in vecops.go peel the tail.

//go:noescape
func reluVec(x *float32, n int)

//go:noescape
func addVec(dst, src *float32, n int)

//go:noescape
func roundBF16Vec(dst, src *float32, n int)

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

package kernels

// AVX2 routines for the vector ops (vecops_amd64.s). n is a positive
// multiple of eight everywhere; the callers in vecops.go peel the tail.

//go:noescape
func reluVec(x *float32, n int)

//go:noescape
func addVec(dst, src *float32, n int)

// mulVec is Mul's AVX2 routine; mulVec16 its AVX-512 one, n a multiple of
// sixteen.
//
//go:noescape
func mulVec(dst, src *float32, n int)

//go:noescape
func mulVec16(dst, src *float32, n int)

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

// The head block's routines (attn.go). transposeKeys8 writes eight key
// rows strideBytes apart, cols a positive multiple of eight, into kt as
// cols columns of eight, colBytes apart. scoreRowsVec scores `rows` ≥ 1
// query rows against the transposed group (cols ≥ 1), storing the first
// `lanes` scores of each. accumRowsBlock8 adds eight rows' weighted sums
// over n ≥ 1 value rows, then row i's next min(i, tri) ones, to cols8
// blocks of eight columns. scoreRows16 and accumRowsBlock16 are the
// AVX-512 forms, over groups of sixteen keys and blocks of sixteen
// columns.
//
//go:noescape
func transposeKeys8(kt, keys *float32, strideBytes, cols, colBytes int)

//go:noescape
func scoreRows16(kt *float32, cols int, q *float32, qStrideBytes, rows int, scale float32, s *float32, sStrideBytes, lanes int)

//go:noescape
func accumRowsBlock16(out *float32, outStrideBytes int, w *float32, wStrideBytes int, vals *float32, valStrideBytes, n, tri, cols16 int)

//go:noescape
func scoreRowsVec(kt *float32, cols int, q *float32, qStrideBytes, rows int, scale float32, s *float32, sStrideBytes, lanes int)

// softmaxRows16 is softmaxVec over `groups` groups of four rows
// strideBytes apart, row r n0+r ≥ 1 elements long, on AVX-512;
// softmaxRows8 over pairs of rows, on AVX2.
//
//go:noescape
func softmaxRows16(x *float32, strideBytes, groups, n0 int)

//go:noescape
func softmaxRows8(x *float32, strideBytes, pairs, n0 int)

//go:noescape
func accumRowsBlock8(out *float32, outStrideBytes int, w *float32, wStrideBytes int, vals *float32, valStrideBytes, n, tri, cols8 int)

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

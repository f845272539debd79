package kernels

import "repro/internal/tensor"

// The element-wise and attention loops around the GEMMs. Each op is a Go
// loop (the …Go function: fallback, and the oracle its vector routine is
// tested against) plus, on hosts with a SIMD level, an AVX2 routine over
// the leading multiple of eight elements; the Go loop finishes the tail.
// Every vector lane performs exactly the scalar loop's operations in the
// scalar loop's order — separately rounded multiply then add, never FMA —
// so both ways produce the same bits and may be mixed freely.

const vecLanes = 8

// vecPrefix is how many leading elements of an n-element op the vector
// routine takes: none without a SIMD level.
func vecPrefix(n int) int {
	if simdLevel == "" {
		return 0
	}
	return n &^ (vecLanes - 1)
}

// ReLU applies max(0, x) in place (OPT FFN activation). −0 and NaN pass
// through unchanged.
func ReLU(x []float32) {
	n := vecPrefix(len(x))
	if n > 0 {
		reluVec(&x[0], n)
	}
	ReLUGo(x[n:])
}

// ReLUGo is ReLU's portable loop.
func ReLUGo(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// Add accumulates src into dst in place (residual connections, biases).
func Add(dst, src []float32) {
	n := vecPrefix(len(dst))
	if n > 0 {
		addVec(&dst[0], &src[:n][0], n)
	}
	AddGo(dst[n:], src[n:])
}

// AddGo is Add's portable loop.
func AddGo(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// AddBias adds bias elementwise to x in place.
func AddBias(x, bias []float32) { Add(x, bias) }

// RoundBF16Into writes src rounded to bfloat16 (nearest even, NaNs
// quieted: tensor.RoundBF16) into dst, len(dst) values, and returns dst.
// dst may be src.
func RoundBF16Into(dst, src []float32) []float32 {
	n := vecPrefix(len(dst))
	if n > 0 {
		roundBF16Vec(&dst[0], &src[:n][0], n)
	}
	RoundBF16IntoGo(dst[n:], src[n:])
	return dst
}

// RoundBF16IntoGo is RoundBF16Into's portable loop.
func RoundBF16IntoGo(dst, src []float32) {
	for i, v := range src[:len(dst)] {
		dst[i] = tensor.RoundBF16(v)
	}
}

// DotRows computes the attention scores of one query head against n
// consecutive cached keys: out[i] = Dot(q, rows[i·stride:][:len(q)])·scale.
// rows is row-major with `stride` values between the starts of consecutive
// rows (a KV cache row holds every head; the caller slices rows to start at
// its head). The vector routine puts eight keys in the eight lanes —
// transposing 8×8 blocks of the row layout in registers — so each score is
// still its own ascending-j sum.
func DotRows(q, rows []float32, stride, n int, scale float32, out []float32) {
	checkRows(len(q), len(rows), stride, n, len(out))
	v := 0
	if len(q) > 0 && len(q)%vecLanes == 0 {
		if v = vecPrefix(n); v > 0 {
			dotRowsVec(&q[0], len(q), &rows[0], stride*4, v/vecLanes, scale, &out[0])
		}
	}
	if v < n {
		DotRowsGo(q, rows[v*stride:], stride, n-v, scale, out[v:])
	}
}

// DotRowsGo is DotRows' portable loop.
func DotRowsGo(q, rows []float32, stride, n int, scale float32, out []float32) {
	for i := 0; i < n; i++ {
		out[i] = Dot(q, rows[i*stride:i*stride+len(q)]) * scale
	}
}

// AccumRows adds the weighted sum of n consecutive cached value rows to
// out: out[j] += w[i]·rows[i·stride+j], i ascending for every j — the
// softmax-weighted V accumulation. Lanes are head-dim columns.
func AccumRows(out, w, rows []float32, stride int) {
	n := len(w)
	checkRows(len(out), len(rows), stride, n, n)
	if n == 0 {
		return
	}
	j := 0
	if simdLevel != "" {
		for ; len(out)-j >= 4*vecLanes; j += 4 * vecLanes {
			accumRows32(&out[j], &w[0], &rows[j], stride*4, n)
		}
		for ; len(out)-j >= vecLanes; j += vecLanes {
			accumRows8(&out[j], &w[0], &rows[j], stride*4, n)
		}
	}
	if j < len(out) {
		AccumRowsGo(out[j:], w, rows[j:], stride)
	}
}

// AccumRowsGo is AccumRows' portable loop.
func AccumRowsGo(out, w, rows []float32, stride int) {
	for i, wi := range w {
		row := rows[i*stride : i*stride+len(out)]
		for j := range out {
			out[j] += wi * row[j]
		}
	}
}

// checkRows panics unless n rows of `cols` values at `stride` fit in a
// slice of rowsLen values and n results fit in outLen: the vector routines
// take raw pointers, so the bounds are checked once here.
func checkRows(cols, rowsLen, stride, n, outLen int) {
	if n < 0 || outLen < n || (n > 0 && (stride < cols || (n-1)*stride+cols > rowsLen)) {
		panic("kernels: strided rows out of range")
	}
}

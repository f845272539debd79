package kernels

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Packed weight layout. Row-major B (k×n) is repacked at load time into
// column panels of PanelCols columns each: panel pn holds the k×PanelCols
// sub-matrix for columns [pn·PanelCols, pn·PanelCols+PanelCols), zero-padded
// on the ragged right edge. The inner GEMM loop then streams one contiguous
// panel top to bottom while holding a PanelCols-wide accumulator in
// registers — the software analog of the AMX/VNNI-friendly pre-tiled weight
// layouts CPU inference runtimes (IPEX, SparAMX) build when weights are
// loaded, which is what lets a decode-shape GEMM (tiny M, large K·N) run at
// streaming bandwidth instead of strided-gather speed.
//
// Panels are PanelCols = TileRows wide, so a packed panel column band is
// exactly one AMX C-tile column, and the BF16 variant pre-rounds the
// weights once at pack time into the TMUL B-tile layout, so no weight
// conversion is left on the hot path.

// PanelCols is the packed panel width in columns.
const PanelCols = TileRows

// PackedB is a weight matrix repacked into column panels (see package
// comment above). BF16 selects the numerics: the values were rounded to
// bfloat16 at pack time, and a GEMM over the pack rounds its activation
// operand too and accumulates under GemmTileBF16's rule. How the values are
// stored is decided by the numerics and, for FP32, by the data: exactly one
// of data, bf and pairs is set.
type PackedB struct {
	K, N int
	BF16 bool
	data []float32 // FP32 numerics, 32-bit storage
	// bf is an FP32 pack's 16-bit storage, used when every value is a
	// bfloat16 (a checkpoint kept in BF16): the values kept as their upper
	// 16 bits (widening back is exact), halving the bytes a GEMV streams. A
	// panel row is bf16Words words; word j holds column j in its low half
	// and column j+bf16Words in its high half, so a kernel widens both with
	// one shift and one mask — a whole row per vector pair.
	bf []uint32
	// pairs is a BF16 pack's storage, in the TMUL B-tile layout: K is
	// zero-padded to kp, a multiple of 32, and a panel is kp/2 pair-rows of
	// PanelCols words, word j of pair-row q holding column j at k = 2q in
	// its low half and at k = 2q+1 in its high half. Sixteen pair-rows are
	// one B tile. Denormal weights are stored as zeros of their sign, which
	// is how TMUL reads them.
	pairs []uint32
	// exps is the exponent range of the values in pairs, recorded as they
	// are packed: fmaExact's weight side.
	exps expRange
}

// expRange spans the biased float32 exponents of an operand's nonzero
// values: lo == 0 says one of them is denormal, hi == 255 that one is ±Inf
// or NaN, lo > hi that there is no nonzero value at all.
type expRange struct{ lo, hi uint8 }

// noExps is the range of an operand that is all zeros.
var noExps = expRange{lo: 255, hi: 0}

// fmaExact reports whether plain float32 arithmetic gives GemmTileBF16's
// bits for activations in range a against BF16-pack weights in range w —
// two chains and a fold per block, as the vector kernels compute them
// (a fused multiply-add, or a multiply then an add). It does when none of
// the rule's special cases can arise: no operand is denormal or
// non-finite; every product is exact in float32 (so a separate multiply's
// rounding changes nothing); and every product is a multiple of 2⁻¹²⁶, so
// every sum of them is zero or normal and nothing is flushed. With 8-bit
// significands and unbiased exponents ea, ew, a product is a multiple of
// 2^(ea+ew−14) below 2^(ea+ew+2).
func fmaExact(a, w expRange) bool {
	if a.hi == 255 || w.hi == 255 {
		return false
	}
	if a.lo > a.hi || w.lo > w.hi {
		return true // one side is all zeros: every product is ±0
	}
	const bias = 127
	return a.lo > 0 && w.lo > 0 &&
		int(a.lo)+int(w.lo)-2*bias-14 >= -126 && int(a.hi)+int(w.hi)-2*bias+1 <= 127
}

// bf16Words is the length of a 16-bit panel row of an FP32 pack in 32-bit
// words.
const bf16Words = PanelCols / 2

// padK is K rounded up to whole TMUL blocks of k.
func padK(k int) int { return (k + TileColsBF16 - 1) &^ (TileColsBF16 - 1) }

// Panels returns the number of column panels.
func (pb *PackedB) Panels() int { return (pb.N + PanelCols - 1) / PanelCols }

// Bytes returns the packed storage footprint.
func (pb *PackedB) Bytes() int64 {
	return int64(len(pb.data)+len(pb.bf)+len(pb.pairs)) * 4
}

// allBF16 reports whether every value survives a round trip through
// tensor.ToBF16 bit for bit: its low 16 bits are zero (rounding then adds
// nothing that carries) and, if it is a NaN, it is already quiet. Weights
// that are not bfloat16 stop the scan within a few values.
func allBF16(b []float32) bool {
	for _, v := range b {
		bits := math.Float32bits(v)
		if bits&0xffff != 0 || (v != v && bits&0x400000 == 0) {
			return false
		}
	}
	return true
}

// packInto packs the k×n matrix whose element (p, j) is b[p*rowStep+j*colStep]
// (all of b[:k*n], in some order). round selects BF16 numerics; an FP32 pack
// is stored in 16 bits when the values allow it.
func packInto(k, n int, b []float32, rowStep, colStep int, round bool) *PackedB {
	panels := (n + PanelCols - 1) / PanelCols
	pb := &PackedB{K: k, N: n, BF16: round, exps: noExps}
	narrow := !round && allBF16(b[:k*n])
	kp := padK(k)
	switch {
	case round:
		pb.pairs = make([]uint32, panels*kp/2*PanelCols)
	case narrow:
		pb.bf = make([]uint32, panels*k*bf16Words)
	default:
		pb.data = make([]float32, panels*k*PanelCols)
	}
	for pn := 0; pn < panels; pn++ {
		j0 := pn * PanelCols
		w := min(PanelCols, n-j0)
		for p := 0; p < k; p++ {
			src := b[p*rowStep+j0*colStep:]
			row := pn*k + p
			switch {
			case round:
				dst := pb.pairs[(pn*kp/2+p/2)*PanelCols:][:w]
				for j := range dst {
					dst[j] |= uint32(pb.exps.flush(uint16(tensor.ToBF16(src[j*colStep])))) << (16 * (p % 2))
				}
			case narrow:
				dst := pb.bf[row*bf16Words : (row+1)*bf16Words]
				for j := 0; j < w; j++ {
					h := math.Float32bits(src[j*colStep]) >> 16 // exact
					if j < bf16Words {
						dst[j] = h
					} else {
						dst[j-bf16Words] |= h << 16
					}
				}
			default:
				dst := pb.data[row*PanelCols : (row+1)*PanelCols]
				for j := 0; j < w; j++ {
					dst[j] = src[j*colStep]
				}
			}
		}
	}
	return pb
}

// PackB packs row-major B (k×n) into the panel layout, FP32 numerics.
func PackB(k, n int, b []float32) *PackedB {
	if len(b) < k*n {
		panic(fmt.Sprintf("kernels: PackB %dx%d: slice too short (%d)", k, n, len(b)))
	}
	return packInto(k, n, b, n, 1, false)
}

// PackBBF16 packs B pre-rounded to bfloat16, the load-time conversion an
// AMX pipeline performs once instead of per GEMM call: each pair of rows is
// narrowed with NarrowBF16 and interleaved by packPairs. It is bit for bit
// PackBBF16Go.
func PackBBF16(k, n int, b []float32) *PackedB {
	if len(b) < k*n {
		panic(fmt.Sprintf("kernels: PackBBF16 %dx%d: slice too short (%d)", k, n, len(b)))
	}
	return packPairs(k, n, func(p int, scratch []uint16) []uint16 {
		NarrowBF16(scratch, b[p*n:(p+1)*n])
		return scratch
	})
}

// PackBBF16Go is PackBBF16 on the portable Go loop whatever the host
// supports: the oracle the vector pack is tested against, and the baseline
// of its row in BENCH_decode.json's op sweep.
func PackBBF16Go(k, n int, b []float32) *PackedB {
	if len(b) < k*n {
		panic(fmt.Sprintf("kernels: PackBBF16Go %dx%d: slice too short (%d)", k, n, len(b)))
	}
	return packInto(k, n, b, n, 1, true)
}

// PackBBF16Bits is PackBBF16 over weights already held as bfloat16 bits
// (row-major k×n, tensor.ToBF16's values): a BF16 model's one store.
func PackBBF16Bits(k, n int, b []uint16) *PackedB {
	if len(b) < k*n {
		panic(fmt.Sprintf("kernels: PackBBF16Bits %dx%d: slice too short (%d)", k, n, len(b)))
	}
	return packPairs(k, n, func(p int, _ []uint16) []uint16 { return b[p*n : (p+1)*n] })
}

// PackBBits is PackB over weights held as bfloat16 bits (row-major k×n):
// FP32 numerics, and the 16-bit storage PackB picks for such weights,
// built without widening them.
func PackBBits(k, n int, b []uint16) *PackedB {
	if len(b) < k*n {
		panic(fmt.Sprintf("kernels: PackBBits %dx%d: slice too short (%d)", k, n, len(b)))
	}
	panels := (n + PanelCols - 1) / PanelCols
	pb := &PackedB{K: k, N: n, exps: noExps, bf: make([]uint32, panels*k*bf16Words)}
	for pn := 0; pn < panels; pn++ {
		j0 := pn * PanelCols
		w := min(PanelCols, n-j0)
		for p := 0; p < k; p++ {
			dst := pb.bf[(pn*k+p)*bf16Words:][:bf16Words]
			for j, h := range b[p*n+j0:][:w] {
				if j < bf16Words {
					dst[j] = uint32(h)
				} else {
					dst[j-bf16Words] |= uint32(h) << 16
				}
			}
		}
	}
	return pb
}

// packPairs builds a BF16 pack from rows of bfloat16 bits: row returns row
// p of the k×n matrix, narrowed into scratch (n values) if it has to be.
// Rows go two at a time, the full panels through the vector routine and a
// ragged last one (every panel, without a SIMD level) through the Go loop:
// each word is its two values flushed as expRange.flush says, the even row
// in the low half.
func packPairs(k, n int, row func(p int, scratch []uint16) []uint16) *PackedB {
	panels, kp := (n+PanelCols-1)/PanelCols, padK(k)
	pb := &PackedB{K: k, N: n, BF16: true, exps: noExps, pairs: make([]uint32, panels*kp/2*PanelCols)}
	if n == 0 {
		return pb
	}
	vec := 0 // panels the vector routine takes
	if simdLevel != levelGeneric {
		vec = n / PanelCols
	}
	// The vector routine's running exponent minima (less one) and maxima.
	var lohi [32]uint32
	for i := range lohi[:16] {
		lohi[i] = math.MaxUint32
	}
	// Two rows to narrow into, and the zero row an odd k's last row pairs with.
	scratch := make([]uint16, 3*n)
	stride := kp / 2 * PanelCols // words from a pair-row to the same one in the next panel
	for p := 0; p < k; p += 2 {
		lo, hi := row(p, scratch[:n]), scratch[2*n:]
		if p+1 < k {
			hi = row(p+1, scratch[n:2*n])
		}
		dst := pb.pairs[p/2*PanelCols:]
		switch {
		case vec > 0 && simdLevel >= levelAVX512:
			pairRows16(&dst[0], &lo[0], &hi[0], vec, 4*stride, &lohi)
		case vec > 0:
			pairRows8(&dst[0], &lo[0], &hi[0], vec, 4*stride, &lohi)
		}
		for pn := vec; pn < panels; pn++ {
			j0 := pn * PanelCols
			for j := range dst[pn*stride:][:min(PanelCols, n-j0)] {
				dst[pn*stride+j] = uint32(pb.exps.flush(lo[j0+j])) | uint32(pb.exps.flush(hi[j0+j]))<<16
			}
		}
	}
	for i := 0; i < 16; i++ {
		if v := lohi[i]; v != math.MaxUint32 {
			pb.exps.lo = min(pb.exps.lo, uint8(v+1))
		}
		pb.exps.hi = max(pb.exps.hi, uint8(lohi[16+i]))
	}
	return pb
}

// flush returns the bfloat16 h as a BF16 pack stores it — a denormal as a
// zero of its sign, which is how TMUL reads it — and widens r over its
// exponent unless it is then zero.
func (r *expRange) flush(h uint16) uint16 {
	if h&0x7f80 == 0 {
		return h & 0x8000
	}
	e := uint8(h >> 7)
	r.lo, r.hi = min(r.lo, e), max(r.hi, e)
	return h
}

// PackBTrans packs B given as its transpose: bT is row-major n×k (each row
// one column of B). This packs e.g. a tied embedding head ([vocab, d]
// storage used as a d×vocab matrix) without materializing the transpose.
func PackBTrans(k, n int, bT []float32) *PackedB {
	if len(bT) < k*n {
		panic(fmt.Sprintf("kernels: PackBTrans %dx%d: slice too short (%d)", k, n, len(bT)))
	}
	return packInto(k, n, bT, 1, k, false)
}

// kernelPath is how one packed GEMM runs on this host.
type kernelPath uint8

const (
	pathGo     kernelPath = iota // the Go loops
	pathVector                   // the AVX2 / AVX-512 micro-kernels
	pathAMX                      // TMUL: BF16 packs, at every M
)

// path is the kernel path of an m-row GEMM over the pack — for a BF16 pack
// on the vector kernels, if its activations pass fmaExact.
func (pb *PackedB) path(m int) kernelPath {
	switch {
	case simdLevel == levelGeneric || pb.K == 0:
		return pathGo
	case !pb.BF16:
		return pathVector
	case simdLevel == levelAMX:
		return pathAMX // faster than the vector kernels at every M, one row included
	case pb.exps.hi == 255:
		return pathGo // fmaExact refuses non-finite weights, whatever the activations
	}
	return pathVector
}

// gemmPanels computes C rows [i0,i1) × column panels [pn0,pn1) on path. a
// is the activation rows: an FP32 pack's as the caller passed them, K
// apart, or a BF16 pack's rounded to bfloat16, kp apart and zero-padded; on
// TMUL, an is the BF16 pack's narrowed to bfloat16 instead. Every output
// element's accumulation order is fixed, so any split of the rows and
// panels gives the same bits: an FP32 pack's is ascending k, bit-identical
// to GemmNaive, and a BF16 pack's is GemmTileBF16's.
func gemmPanels(path kernelPath, i0, i1, pn0, pn1 int, a []float32, an []uint16, pb *PackedB, c []float32) {
	switch {
	case path == pathAMX:
		gemmPanelsAMX(i0, i1, pn0, pn1, an, pb, c)
	case path == pathGo && pb.BF16:
		gemmPairsGo(i0, i1, pn0, pn1, a, pb, c)
	case path == pathGo:
		gemmPackedPanelsGo(i0, i1, pn0, pn1, a, pb, c)
	case pb.BF16:
		gemmPairsSIMD(i0, i1, pn0, pn1, a, pb, c)
	case simdLevel >= levelAVX512 && i1-i0 > 1:
		gemmPanels512(i0, i1, pn0, pn1, a, pb, c)
	default:
		gemmPanelsSIMD(i0, i1, pn0, pn1, a, pb, c)
	}
}

// prepare readies the m activation rows in a for a GEMM over the BF16 pack
// pb on path, in the job's scratch: on TMUL it narrows them into an,
// otherwise it rounds them into ar, each kp apart. It returns the path to
// take — the Go loops if the rounded rows fail fmaExact — and the rows
// gemmPanels is to read as a.
func (j *PackedJob) prepare(path kernelPath, m int, a []float32, pb *PackedB) (kernelPath, []float32) {
	k, kp := pb.K, padK(pb.K)
	if path == pathAMX {
		j.an = grow(j.an, m*kp)
		narrowRows(j.an, a, m, k, kp)
		return path, nil
	}
	j.ar = grow(j.ar, m*kp)
	if !fmaExact(roundRows(j.ar, a, m, k, kp), pb.exps) {
		path = pathGo
	}
	return path, j.ar
}

// roundRows rounds the m rows of k activations in a to bfloat16 into dst,
// kp apart with the padding zeroed, and returns the exponent range of the
// rounded values (fmaExact's activation side).
func roundRows(dst, a []float32, m, k, kp int) expRange {
	rows, width, stride := m, k, kp
	if k == kp { // the rows are contiguous on both sides: one pass
		rows, width, stride = 1, m*k, m*k
	}
	var lohi [16]uint32 // roundBF16Vec's running minima, then maxima
	for i := range lohi[:8] {
		lohi[i] = math.MaxUint32
	}
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for i := 0; i < rows; i++ {
		row, src := dst[i*stride:i*stride+width], a[i*k:i*k+width]
		v := vecPrefix(width)
		if v > 0 {
			roundBF16Vec(&row[0], &src[0], v, &lohi)
		}
		for j := v; j < width; j++ {
			row[j] = tensor.RoundBF16(src[j])
			abs := math.Float32bits(row[j]) &^ (1 << 31)
			lo, hi = min(lo, abs-1), max(hi, abs) // a zero wraps to the top of lo
		}
		clear(dst[i*stride+width : (i+1)*stride])
	}
	for i := 0; i < 8; i++ {
		lo, hi = min(lo, lohi[i]), max(hi, lohi[8+i])
	}
	if hi == 0 {
		return noExps
	}
	return expRange{lo: uint8((lo + 1) >> 23), hi: uint8(hi >> 23)}
}

// gemmPackedPanelsGo is an FP32 pack's GEMM in portable Go: the fallback on
// hosts without a SIMD micro-kernel, and the oracle the micro-kernels are
// tested against.
func gemmPackedPanelsGo(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32) {
	k, n := pb.K, pb.N
	for pn := pn0; pn < pn1; pn++ {
		j0 := pn * PanelCols
		w := min(PanelCols, n-j0)
		for i := i0; i < i1; i++ {
			arow := a[i*k : i*k+k]
			var acc [PanelCols]float32
			if pb.bf != nil {
				panel := pb.bf[pn*k*bf16Words : (pn+1)*k*bf16Words]
				for p, av := range arow {
					for j, word := range panel[p*bf16Words : (p+1)*bf16Words] {
						acc[j] += av * math.Float32frombits(word<<16)
						acc[j+bf16Words] += av * math.Float32frombits(word&^0xffff)
					}
				}
			} else {
				panel := pb.data[pn*k*PanelCols : (pn+1)*k*PanelCols]
				for p, av := range arow {
					prow := panel[p*PanelCols : p*PanelCols+PanelCols]
					for j := range acc {
						acc[j] += av * prow[j]
					}
				}
			}
			copy(c[i*n+j0:i*n+j0+w], acc[:w])
		}
	}
}

// gemmPairsGo is a BF16 pack's GEMM in portable Go, GemmTileBF16's rule over
// the pair layout: the fallback on hosts without TMUL or vector kernels,
// and what the vector kernels leave to it. a is the rounded activation
// rows, kp apart.
func gemmPairsGo(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32) {
	kp, n := padK(pb.K), pb.N
	for pn := pn0; pn < pn1; pn++ {
		j0 := pn * PanelCols
		w := min(PanelCols, n-j0)
		panel := pb.pairs[pn*kp/2*PanelCols : (pn+1)*kp/2*PanelCols]
		for i := i0; i < i1; i++ {
			arow := a[i*kp : (i+1)*kp]
			var acc [PanelCols]float32
			for p0 := 0; p0 < kp; p0 += TileColsBF16 {
				var e, o [PanelCols]float32
				for p := p0; p < p0+TileColsBF16; p += 2 {
					ae, ao := flushDenormal(arow[p]), flushDenormal(arow[p+1])
					for j, word := range panel[p/2*PanelCols : p/2*PanelCols+PanelCols] {
						e[j] = tmulStep(e[j], ae, math.Float32frombits(word<<16))
						o[j] = tmulStep(o[j], ao, math.Float32frombits(word&^0xffff))
					}
				}
				for j := range acc {
					acc[j] = flushDenormal(acc[j] + flushDenormal(e[j]+o[j]))
				}
			}
			copy(c[i*n+j0:i*n+j0+w], acc[:w])
		}
	}
}

func checkPackedDims(m int, a []float32, pb *PackedB, c []float32) {
	if len(a) < m*pb.K || len(c) < m*pb.N {
		panic(fmt.Sprintf("kernels: packed gemm %dx%dx%d: slices too short (a=%d c=%d)",
			m, pb.N, pb.K, len(a), len(c)))
	}
}

// GemmPacked computes C = A·B (A row-major m×K, C m×N) over a packed B.
// FP32 packs match GemmNaive bit for bit; BF16 packs match GemmTileBF16
// bit for bit. This is the serial reference entry point — the hot path
// uses GemmPackedPooled, which splits over a Pool. Neither allocates in
// steady state: the rounded activation copy lives in a PackedJob's
// scratch, here one the serial entry points recycle (serialJobs).
func GemmPacked(m int, a []float32, pb *PackedB, c []float32) {
	gemmPackedSerial(m, a, pb, c, false)
}

// GemmPackedGeneric is GemmPacked on the portable Go loop whatever the
// host supports: the oracle the SIMD micro-kernel is tested against, and
// the scalar baseline BENCH_decode.json keeps beside every SIMD row.
func GemmPackedGeneric(m int, a []float32, pb *PackedB, c []float32) {
	gemmPackedSerial(m, a, pb, c, true)
}

func gemmPackedSerial(m int, a []float32, pb *PackedB, c []float32, generic bool) {
	checkPackedDims(m, a, pb, c)
	path := pb.path(m)
	if generic {
		path = pathGo
	}
	if !pb.BF16 {
		gemmPanels(path, 0, m, 0, pb.Panels(), a, nil, pb, c)
		return
	}
	var j *PackedJob
	select {
	case j = <-serialJobs:
	default:
		j = new(PackedJob)
	}
	path, a = j.prepare(path, m, a, pb)
	gemmPanels(path, 0, m, 0, pb.Panels(), a, j.an, pb, c)
	if 4*cap(j.ar)+2*cap(j.an) <= serialKeep {
		select {
		case serialJobs <- j:
		default:
		}
	}
}

// serialJobs keeps the serial entry points' scratch between calls. It is a
// free list rather than a sync.Pool, which drops a share of its Puts on
// purpose under the race detector, so that a steady caller allocates
// nothing with or without it. It holds two jobs, and none whose scratch
// has grown past serialKeep bytes.
var serialJobs = make(chan *PackedJob, 2)

const serialKeep = 1 << 20

// GemvPacked computes y = x·B for a single activation row — the decode
// GEMV shape the paper identifies as memory-bound.
func GemvPacked(x []float32, pb *PackedB, y []float32) {
	GemmPacked(1, x, pb, y)
}

// PackedJob is the reusable dispatch state for pool-parallel packed GEMMs.
// Keeping it caller-owned (one per scratch arena) makes steady-state
// dispatch allocation-free: the bf16 rounding buffers and the partition
// descriptor are reused across every call.
type PackedJob struct {
	m    int
	a    []float32 // the rows gemmPanels reads: the caller's, or ar
	pb   *PackedB
	c    []float32
	path kernelPath

	byRows    bool
	rowsPer   int
	panelsPer int

	ar []float32 // bf16-rounded activation scratch
	an []uint16  // the same narrowed to bfloat16, for TMUL
}

// RunPart implements Task: it computes one row band or one column-panel
// band of the current GEMM.
func (j *PackedJob) RunPart(part, parts int) {
	if j.byRows {
		i0 := part * j.rowsPer
		i1 := min(i0+j.rowsPer, j.m)
		if i0 < i1 {
			gemmPanels(j.path, i0, i1, 0, j.pb.Panels(), j.a, j.an, j.pb, j.c)
		}
		return
	}
	pn0 := part * j.panelsPer
	pn1 := min(pn0+j.panelsPer, j.pb.Panels())
	if pn0 < pn1 {
		gemmPanels(j.path, 0, j.m, pn0, pn1, j.a, j.an, j.pb, j.c)
	}
}

// grow returns s resized to n, reallocated only when it is too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// minSplitMACs is the least work (multiply-adds) of an m-row GEMM that
// GemmPackedPooled hands to the pool: a parked worker takes long enough to
// wake that, below it, the caller has finished its own part and the
// worker's before the worker runs, and the GEMM costs what it costs inline
// plus the dispatch. The break-even is a time, so the count follows the
// kernel's rate: measured on the 2-vCPU sandbox, about 2²⁰ multiply-adds
// on the AVX2 kernels — which a single row runs on below the TMUL level —
// and 2²⁴ on the 512-bit tiles. On TMUL a GEMM is worth splitting once it
// is compute-bound and long (2²⁶), or bandwidth-bound — its weights past
// L2, 2²⁰ multiply-adds per row (docs/performance.md has the tables).
func minSplitMACs(m int, path kernelPath) int {
	switch {
	case path == pathAMX:
		return min(m<<20, 1<<26)
	case simdLevel >= levelAVX512 && m > 1:
		return 1 << 24
	}
	return 1 << 20
}

// rowBlock is the AVX2 micro-kernel's register block: four activation rows
// share each panel load.
const rowBlock = 4

// rowBand is the height of the row bands an m-row GEMM is split into over
// `workers` workers, or 0 when it is to be split by column panels: every
// worker is to get at least one of the level's tallest register tiles
// (sixteen rows on the 512-bit tiles), and the band is rounded up to a
// multiple of its shortest rows × 1 tile, so that only the last band ends
// in a repeated or recomputed row. TMUL splits by panels at every M: each
// worker then streams only its half of the weights, which is what a GEMM
// big enough to split is bound by.
func rowBand(m, workers int, path kernelPath) int {
	tall, step := rowBlock, rowBlock
	switch {
	case path == pathAMX:
		return 0
	case simdLevel >= levelAVX512:
		tall, step = 16, 8
	}
	if m < tall*workers {
		return 0
	}
	per := (m + workers - 1) / workers
	return (per + step - 1) / step * step
}

// GemmPackedPooled computes C = A·B over a packed B, splitting the work
// across the pool: by rows when every worker gets at least one full
// register tile of them (prefill), by column panels otherwise (decode),
// so a batch=1 GEMV of a large matrix still uses every core. A nil pool,
// or a GEMM too small to be worth a wake-up, runs inline. Results are
// bit-identical to GemmPacked for any worker count — each output
// element's accumulation order is fixed.
func GemmPackedPooled(p *Pool, j *PackedJob, m int, a []float32, pb *PackedB, c []float32) {
	gemmPackedPooled(p, j, m, a, pb, c, minSplitMACs(m, pb.path(m)))
}

// gemmPackedPooled is GemmPackedPooled with the inline threshold as an
// argument (the tests send small GEMMs through the splits).
func gemmPackedPooled(p *Pool, j *PackedJob, m int, a []float32, pb *PackedB, c []float32, minMACs int) {
	checkPackedDims(m, a, pb, c)
	path := pb.path(m)
	if pb.BF16 {
		path, a = j.prepare(path, m, a, pb)
	}
	workers := p.Workers()
	panels := pb.Panels()
	if workers <= 1 || m*pb.K*panels*PanelCols < minMACs {
		gemmPanels(path, 0, m, 0, panels, a, j.an, pb, c)
		return
	}
	j.m, j.a, j.pb, j.c, j.path = m, a, pb, c, path
	if j.rowsPer = rowBand(m, workers, path); j.rowsPer > 0 {
		j.byRows = true
		p.Run(j, (m+j.rowsPer-1)/j.rowsPer)
	} else {
		parts := min(workers, panels)
		j.byRows, j.panelsPer = false, (panels+parts-1)/parts
		p.Run(j, parts)
	}
	j.a, j.pb, j.c = nil, nil, nil // keep no caller slices alive
}

package kernels

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// Packed weight layout. Row-major B (k×n) is repacked at load time into
// column panels of PanelCols columns each: panel pn holds the k×PanelCols
// sub-matrix for columns [pn·PanelCols, pn·PanelCols+PanelCols), stored
// row-major and zero-padded on the ragged right edge. The inner GEMM loop
// then streams one contiguous panel top to bottom while holding a
// PanelCols-wide accumulator in registers — the software analog of the
// AMX/VNNI-friendly pre-tiled weight layouts CPU inference runtimes
// (IPEX, SparAMX) build when weights are loaded, which is what lets a
// decode-shape GEMM (tiny M, large K·N) run at streaming bandwidth
// instead of strided-gather speed.
//
// Panels are PanelCols = TileRows wide so a packed panel column band is
// exactly one AMX C-tile column, and the BF16 variant pre-rounds the
// weights once at pack time, so no weight conversion is left on the hot
// path.

// PanelCols is the packed panel width in columns.
const PanelCols = TileRows

// PackedB is a weight matrix repacked into column panels (see package
// comment above). BF16 selects the numerics: the values were rounded to
// bfloat16 at pack time, and kernels consuming the pack round their
// activation operand too (and skip zero activations), matching AMX TMUL.
// How the values are stored is a separate matter, decided by the data:
// exactly one of data and bf is set.
type PackedB struct {
	K, N int
	BF16 bool
	data []float32 // 32-bit storage
	// bf is 16-bit storage, used whenever every value is a bfloat16 — a
	// BF16 pack always, an FP32 pack when its weights happen to be (a
	// checkpoint kept in BF16): the values kept as their upper 16 bits
	// (widening back is exact), halving the bytes a GEMV streams. A panel
	// row is bf16Words words; word j holds column j in its low half and
	// column j+bf16Words in its high half, so a kernel widens both with
	// one shift and one mask — a whole row per vector pair.
	bf []uint32
	// exps is the exponent range of the values in bf, recorded as they are
	// packed; the SIMD kernels read two facts off it (finite, fmaExact).
	exps expRange
}

// expRange spans the biased float32 exponents of an operand's nonzero
// values: lo == 0 says one of them is denormal, hi == 255 that one is ±Inf
// or NaN, lo > hi that there is no nonzero value at all.
type expRange struct{ lo, hi uint8 }

// noExps is the range of an operand that is all zeros.
var noExps = expRange{lo: 255, hi: 0}

// finite reports that no packed 16-bit value is ±Inf or NaN. The BF16
// av == 0 skip only changes a result when it avoids 0·Inf or 0·NaN; over
// finite weights the skipped product is ±0 and the accumulator, which
// starts at +0 and so is never −0, absorbs it unchanged — which is what
// lets the SIMD kernels run BF16 packs without the branch.
func (pb *PackedB) finite() bool { return pb.exps.hi < 255 }

// fmaExact reports whether every product of a value in range a and a value
// in range w is exact in float32 — neither overflowing nor dropping below
// the normal range — given that both operands are bfloat16. Their 8-bit
// significands multiply into at most 16 bits, so such a product is
// representable, the multiply's rounding is a no-op, and a fused
// multiply-add returns the bits of the separate multiply and add. With
// unbiased exponents ea, ew the product's is ea+ew or ea+ew+1, which must
// stay within [−126, 127]. Denormal and non-finite operands are left to
// the unfused kernel rather than reasoned about.
func fmaExact(a, w expRange) bool {
	if a.hi == 255 || w.hi == 255 {
		return false
	}
	if a.lo > a.hi || w.lo > w.hi {
		return true // one side is all zeros: every product is ±0
	}
	const bias = 127
	return a.lo > 0 && w.lo > 0 &&
		int(a.lo)+int(w.lo)-2*bias >= -126 && int(a.hi)+int(w.hi)-2*bias+1 <= 127
}

// bf16Words is the length of a 16-bit panel row in 32-bit words.
const bf16Words = PanelCols / 2

// Panels returns the number of column panels.
func (pb *PackedB) Panels() int { return (pb.N + PanelCols - 1) / PanelCols }

// Bytes returns the packed storage footprint.
func (pb *PackedB) Bytes() int64 { return int64(len(pb.data))*4 + int64(len(pb.bf))*4 }

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
// (all of b[:k*n], in some order). round selects BF16 numerics; storage is
// 16-bit when the values allow it.
func packInto(k, n int, b []float32, rowStep, colStep int, round bool) *PackedB {
	panels := (n + PanelCols - 1) / PanelCols
	pb := &PackedB{K: k, N: n, BF16: round, exps: noExps}
	narrow := round || allBF16(b[:k*n])
	if narrow {
		pb.bf = make([]uint32, panels*k*bf16Words)
	} else {
		pb.data = make([]float32, panels*k*PanelCols)
	}
	for pn := 0; pn < panels; pn++ {
		j0 := pn * PanelCols
		w := min(PanelCols, n-j0)
		for p := 0; p < k; p++ {
			src := b[p*rowStep+j0*colStep:]
			row := pn*k + p
			if narrow {
				dst := pb.bf[row*bf16Words : (row+1)*bf16Words]
				for j := 0; j < w; j++ {
					h := math.Float32bits(src[j*colStep]) >> 16 // exact when !round
					if round {
						h = uint32(tensor.ToBF16(src[j*colStep]))
					}
					if e := uint8(h >> 7); h&0x7fff != 0 {
						pb.exps.lo, pb.exps.hi = min(pb.exps.lo, e), max(pb.exps.hi, e)
					}
					if j < bf16Words {
						dst[j] = h
					} else {
						dst[j-bf16Words] |= h << 16
					}
				}
			} else {
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
// AMX pipeline performs once instead of per GEMM call.
func PackBBF16(k, n int, b []float32) *PackedB {
	if len(b) < k*n {
		panic(fmt.Sprintf("kernels: PackBBF16 %dx%d: slice too short (%d)", k, n, len(b)))
	}
	return packInto(k, n, b, n, 1, true)
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

// gemmPackedPanels computes C rows [i0,i1) × column panels [pn0,pn1) for
// C = A·B over a packed B. Accumulation is FP32 ascending k per output
// element — bit-identical to GemmNaive for an FP32 pack, and bit-identical
// to GemmTileBF16 for a BF16 pack (same rounding, same zero-skip, same
// accumulation order). For BF16 packs, a must already be bf16-rounded, and
// exact says what roundActivations found out about it on the way.
func gemmPackedPanels(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32, exact bool) {
	switch {
	case simdLevel == "" || pb.K == 0 || (pb.BF16 && !pb.finite()):
		gemmPackedPanelsGo(i0, i1, pn0, pn1, a, pb, c)
	case simdLevel == "avx512" && i1-i0 > 1:
		gemmPanels512(i0, i1, pn0, pn1, a, pb, c, exact)
	default:
		gemmPanelsSIMD(i0, i1, pn0, pn1, a, pb, c)
	}
}

// gemmPackedPanelsGo is gemmPackedPanels in portable Go: the fallback on
// hosts without a SIMD micro-kernel, and the oracle the micro-kernel is
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
					if av == 0 && pb.BF16 {
						continue
					}
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
// steady state: the bf16-rounded activation copy lives on the stack when
// it is small (a decode GEMV) and in recycled scratch otherwise.
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
	exact := false
	if pb.BF16 {
		var stack [1024]float32
		need := m * pb.K
		var ar []float32
		if need <= len(stack) {
			ar = stack[:need]
		} else {
			buf := roundScratch.Get().(*[]float32)
			defer roundScratch.Put(buf)
			if cap(*buf) < need {
				*buf = make([]float32, need)
			}
			ar = (*buf)[:need]
		}
		exact = roundActivations(ar, a, m, pb.exps)
		a = ar
	}
	if generic {
		gemmPackedPanelsGo(0, m, 0, pb.Panels(), a, pb, c)
	} else {
		gemmPackedPanels(0, m, 0, pb.Panels(), a, pb, c, exact)
	}
}

// roundActivations is RoundBF16Into(dst, a) for the m rows of activations
// of a GEMM over a BF16 pack whose weights span w, and reports whether the
// GEMM may fuse its multiplies and adds (fmaExact). Only the 512-bit tiles
// can, so only a host that has them, and only for the two or more rows they
// take, pays for the answer: there the pass is a 512-bit routine that also
// collects the activations' exponent range. A single row keeps the AVX2
// pass — one ZMM instruction among the GEMV's YMM ones puts the core in a
// lower-clocked licence, and cost the benchmark's batch-1 decode step 5 %.
func roundActivations(dst, a []float32, m int, w expRange) bool {
	if m > 1 && simdLevel == "avx512" {
		return roundBF16Exact(dst, a, w)
	}
	RoundBF16Into(dst, a)
	return false
}

// roundScratch recycles GemmPacked's rounded-activation copies that do not
// fit its stack buffer.
var roundScratch = sync.Pool{New: func() any { return new([]float32) }}

// GemvPacked computes y = x·B for a single activation row — the decode
// GEMV shape the paper identifies as memory-bound.
func GemvPacked(x []float32, pb *PackedB, y []float32) {
	GemmPacked(1, x, pb, y)
}

// PackedJob is the reusable dispatch state for pool-parallel packed GEMMs.
// Keeping it caller-owned (one per scratch arena) makes steady-state
// dispatch allocation-free: the bf16 rounding buffer and the partition
// descriptor are reused across every call.
type PackedJob struct {
	m  int
	a  []float32
	pb *PackedB
	c  []float32

	exact     bool // roundActivations' verdict on a
	byRows    bool
	rowsPer   int
	panelsPer int

	ar []float32 // bf16-rounded activation scratch
}

// RunPart implements Task: it computes one row band or one column-panel
// band of the current GEMM.
func (j *PackedJob) RunPart(part, parts int) {
	if j.byRows {
		i0 := part * j.rowsPer
		i1 := min(i0+j.rowsPer, j.m)
		if i0 < i1 {
			gemmPackedPanels(i0, i1, 0, j.pb.Panels(), j.a, j.pb, j.c, j.exact)
		}
		return
	}
	pn0 := part * j.panelsPer
	pn1 := min(pn0+j.panelsPer, j.pb.Panels())
	if pn0 < pn1 {
		gemmPackedPanels(0, j.m, pn0, pn1, j.a, j.pb, j.c, j.exact)
	}
}

// minSplitMACs is the least work (multiply-adds) of an m-row GEMM that
// GemmPackedPooled hands to the pool: a parked worker takes long enough to
// wake that, below it, the caller has finished its own part and the
// worker's before the worker runs, and the GEMM costs what it costs inline
// plus the dispatch. The break-even is a time, so the count follows the
// kernel's rate: measured on the 2-vCPU sandbox, about 2²⁰ multiply-adds
// on the AVX2 kernels — which a single row runs on at every level — and
// 2²⁴ on the 512-bit tiles (docs/performance.md has the table).
func minSplitMACs(m int) int {
	if simdLevel == "avx512" && m > 1 {
		return 1 << 24
	}
	return 1 << 20
}

// rowBlock is the AVX2 micro-kernel's register block: four activation rows
// share each panel load.
const rowBlock = 4

// rowBand is the height of the row bands an m-row GEMM is split into over
// `workers` workers, or 0 when m is too short to split by rows: every
// worker is to get at least one of the level's tallest register tiles
// (sixteen rows on the 512-bit tiles), and the band is rounded up to a
// multiple of its shortest rows × 1 tile, so that only the last band ends
// in a repeated or recomputed row.
func rowBand(m, workers int) int {
	tall, step := rowBlock, rowBlock
	if simdLevel == "avx512" {
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
	gemmPackedPooled(p, j, m, a, pb, c, minSplitMACs(m))
}

// gemmPackedPooled is GemmPackedPooled with the inline threshold as an
// argument (the tests send small GEMMs through the splits).
func gemmPackedPooled(p *Pool, j *PackedJob, m int, a []float32, pb *PackedB, c []float32, minMACs int) {
	checkPackedDims(m, a, pb, c)
	exact := false
	if pb.BF16 {
		need := m * pb.K
		if cap(j.ar) < need {
			j.ar = make([]float32, need)
		}
		j.ar = j.ar[:need]
		exact = roundActivations(j.ar, a, m, pb.exps)
		a = j.ar
	}
	workers := p.Workers()
	panels := pb.Panels()
	if workers <= 1 || m*pb.K*panels*PanelCols < minMACs {
		gemmPackedPanels(0, m, 0, panels, a, pb, c, exact)
		return
	}
	j.m, j.a, j.pb, j.c, j.exact = m, a, pb, c, exact
	if j.rowsPer = rowBand(m, workers); j.rowsPer > 0 {
		j.byRows = true
		p.Run(j, (m+j.rowsPer-1)/j.rowsPer)
	} else {
		parts := min(workers, panels)
		j.byRows = false
		j.panelsPer = (panels + parts - 1) / parts
		p.Run(j, parts)
	}
	j.a, j.pb, j.c = nil, nil, nil
}

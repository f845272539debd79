package kernels

import "repro/internal/tensor"

// TMUL kernels for a BF16 pack's GEMM (amx_amd64.s). The pack is already in
// the B-tile layout, and the activations come narrowed to bfloat16 rows
// zero-padded to kp; what is left to the Go code here is the blocking — a
// band of 32 rows against the panels two at a time — and the tile shapes,
// which is how ragged edges are handled: a tile of fewer rows or columns
// reads and writes only those, so no store passes the end of a C row.

// tileConfig is LDTILECFG's 64-byte operand: palette 1, then each tile's
// bytes per row and rows.
type tileConfig [64]byte

// set shapes tile t as rows × colsb bytes.
func (cfg *tileConfig) set(t, rows, colsb int) {
	cfg[16+2*t], cfg[16+2*t+1] = byte(colsb), byte(colsb>>8)
	cfg[48+t] = byte(rows)
}

// amxShape returns the tile shapes of `rows` activation rows (1-32)
// against a panel pair of w0 and w1 columns (1-16; w1 = 0: one panel), and
// amxTiles' shape bits.
func amxShape(rows, w0, w1 int) (cfg tileConfig, shape int) {
	cfg[0] = 1
	r0, r1 := min(rows, TileRows), max(rows-TileRows, 0)
	cfg.set(0, r0, 4*w0)           // C00
	cfg.set(4, r0, 2*TileColsBF16) // A0
	cfg.set(6, TileRows, 4*w0)     // B0
	if w1 > 0 {
		cfg.set(1, r0, 4*w1) // C01
		cfg.set(7, TileRows, 4*w1)
		shape |= 2
	}
	if r1 > 0 {
		cfg.set(2, r1, 4*w0) // C10
		cfg.set(5, r1, 2*TileColsBF16)
		shape |= 1
		if w1 > 0 {
			cfg.set(3, r1, 4*w1) // C11
		}
	}
	return cfg, shape
}

//go:noescape
func amxTiles(cfg *tileConfig, a *uint16, aStride int, b *uint32, kBlocks int, c *float32, cStride int, pairs, shape int)

//go:noescape
func amxPeak(cfg *tileConfig, iters int)

// amxChunkBytes is about how much of the weights gemmPanelsAMX runs against
// every band before it moves on: well inside L2, beside the bands of
// activations it re-reads, so that a matrix past L2 streams from memory
// once rather than once per band.
const amxChunkBytes = 256 << 10

// gemmPanelsAMX is a BF16 pack's GEMM on TMUL: C rows [i0,i1) × panels
// [pn0,pn1), an being the activations narrowed to bfloat16, kp apart. The
// full-width panels go in pairs, a chunk of pairs at a time against every
// band of 32 rows; then what is left — one panel, or a pair ending in the
// ragged last — against every band.
func gemmPanelsAMX(i0, i1, pn0, pn1 int, an []uint16, pb *PackedB, c []float32) {
	kp, n := padK(pb.K), pb.N
	panelWords := kp / 2 * PanelCols
	full := pn1 - pn0
	if pn1 == pb.Panels() && n%PanelCols != 0 {
		full--
	}
	pairs, tail := full/2, pn0+full/2*2
	chunk := max(1, amxChunkBytes/(8*panelWords))
	band := func(i, pn, np, w0, w1 int) { // rows from i against np pairs from panel pn
		cfg, shape := amxShape(min(2*TileRows, i1-i), w0, w1)
		amxTiles(&cfg, &an[i*kp], 2*kp, &pb.pairs[pn*panelWords], kp/TileColsBF16,
			&c[i*n+pn*PanelCols], 4*n, np, shape)
	}
	for p := 0; p < pairs; p += chunk {
		for i := i0; i < i1; i += 2 * TileRows {
			band(i, pn0+2*p, min(chunk, pairs-p), PanelCols, PanelCols)
		}
	}
	if tail < pn1 {
		width := func(pn int) int { return min(PanelCols, n-pn*PanelCols) }
		w1 := 0
		if tail+1 < pn1 {
			w1 = width(tail + 1)
		}
		for i := i0; i < i1; i += 2 * TileRows {
			band(i, tail, 1, width(tail), w1)
		}
	}
}

// amxPeakLoop runs amxPeak with every tile at its full shape.
func amxPeakLoop(iters int) {
	var cfg tileConfig
	cfg[0] = 1
	for t := 0; t < 8; t++ {
		cfg.set(t, TileRows, 2*TileColsBF16)
	}
	amxPeak(&cfg, iters)
}

// narrowBF16 is tensor.ToBF16 on n values, a positive multiple of 16.
//
//go:noescape
func narrowBF16(dst *uint16, src *float32, n int)

// narrowRows rounds the m rows of k activations in a to bfloat16 into dst,
// kp apart with the padding zeroed: the operand TILELOADD reads.
func narrowRows(dst []uint16, a []float32, m, k, kp int) {
	if k == kp {
		narrowBF16(&dst[0], &a[0], m*k)
		return
	}
	v := k &^ 15
	for i := 0; i < m; i++ {
		row, src := dst[i*kp:(i+1)*kp], a[i*k:(i+1)*k]
		if v > 0 {
			narrowBF16(&row[0], &src[0], v)
		}
		for j := v; j < k; j++ {
			row[j] = uint16(tensor.ToBF16(src[j]))
		}
		clear(row[k:])
	}
}

package kernels

// HeadBlock is one head's causal attention over a chunk of query rows —
// DotRows, Softmax and AccumRows for every row of a prefill, a prefill
// chunk or a verification pass at once, run once per (sequence, head)
// instead of once per (row, head). Query row r sits at position Start+r
// and attends to the keys at positions 0..Start+r; keys and values arrive
// in runs (a paged KV cache hands them out block by block), in ascending
// position order.
//
// Every number is the per-row ops': row r's scores are DotRows' over its
// visible keys, its probabilities Softmax's over them, and its output
// AccumRows' over them run by run, bit for bit. What the block changes is
// the work around the arithmetic. Each group of keys is transposed once
// and scored against every row that sees it, eight rows × a register's
// keys (eight, or sixteen on AVX-512) at a time; Softmax runs the rows in
// one call, their exponential chains interleaved (four rows at a time on
// AVX-512, two on AVX2); each value row is loaded once per eight output
// rows. The causal triangle is handled inside: a row never
// reads a probability past its own position. A one-row block (a decode
// step) is the per-row ops themselves, which check their own operands, so
// it skips the block's checks.
type HeadBlock struct {
	Rows  int // query rows, at positions Start, Start+1, …
	Start int
	Cols  int // the head dimension
	Scale float32

	Q       []float32 // query row r: Q[r·QStride:][:Cols]
	QStride int
	// S holds row r's scores, then its probabilities, at
	// S[r·SStride:][:Start+r+1]; SStride ≥ Start+Rows. Scores may spill
	// into a row's positions past its own (never past Start+Rows).
	S       []float32
	SStride int
	Out     []float32 // output row r: Out[r·OutStride:][:Cols], which Accum adds to
	// OutStride is the distance between output rows.
	OutStride int
	KT        []float32 // scratch: one transposed key group, 16·Cols values
}

// ctx is how many positions the last row attends to.
func (b *HeadBlock) ctx() int { return b.Start + b.Rows }

// firstRow is the first row that sees key position t.
func (b *HeadBlock) firstRow(t int) int { return max(0, t-b.Start) }

// seen is how many of the n keys at positions t.. row r attends to.
func (b *HeadBlock) seen(r, t, n int) int { return min(n, b.Start+r+1-t) }

// check panics unless the block's slices hold its rows: the vector
// routines take raw pointers.
func (b *HeadBlock) check() {
	ctx, last := b.ctx(), b.Rows-1
	if b.Rows < 1 || b.Start < 0 || b.Cols < 0 || len(b.KT) < 16*b.Cols ||
		b.QStride < b.Cols || last*b.QStride+b.Cols > len(b.Q) ||
		b.SStride < ctx || last*b.SStride+ctx > len(b.S) ||
		b.OutStride < b.Cols || last*b.OutStride+b.Cols > len(b.Out) {
		panic("kernels: head block out of range")
	}
}

// checkRun is check, and that the run of n rows at position t, `stride`
// apart, fits in run and ends inside the context.
func (b *HeadBlock) checkRun(run []float32, stride, t, n int) {
	b.check()
	if t < 0 || n < 1 || t+n > b.ctx() {
		panic("kernels: head block run out of range")
	}
	checkRows(b.Cols, len(run), stride, n, n)
}

func (b *HeadBlock) qRow(r int) []float32   { return b.Q[r*b.QStride:][:b.Cols] }
func (b *HeadBlock) sRow(r int) []float32   { return b.S[r*b.SStride:][:b.Start+r+1] }
func (b *HeadBlock) outRow(r int) []float32 { return b.Out[r*b.OutStride:][:b.Cols] }

// Scores writes the scores of the n keys at positions t.. (rows of keys,
// `stride` apart) for every row that sees them: S[r·SStride+t+i] =
// Dot(q_r, key_i)·Scale, DotRows' bits.
func (b *HeadBlock) Scores(keys []float32, stride, t, n int) {
	if b.Rows == 1 { // a decode step: no other row to share a transpose with
		DotRows(b.Q[:b.Cols], keys, stride, n, b.Scale, b.S[t:b.ctx()])
		return
	}
	b.checkRun(keys, stride, t, n)
	if simdLevel == levelGeneric || b.Cols == 0 {
		b.ScoresGo(keys, stride, t, n)
		return
	}
	lanes := vecLanes // keys per group: a register's lanes
	if simdLevel >= levelAVX512 {
		lanes = 16
	}
	for g := 0; g < n; g += lanes {
		r0 := b.firstRow(t + g)
		if r0 >= b.Rows {
			return
		}
		m := min(lanes, n-g)
		transposeKeys(b.KT[:lanes*b.Cols], keys[g*stride:], stride, m, lanes, b.Cols)
		q, s := &b.Q[r0*b.QStride], &b.S[r0*b.SStride+t+g]
		if lanes == 16 {
			scoreRows16(&b.KT[0], b.Cols, q, b.QStride*4, b.Rows-r0, b.Scale, s, b.SStride*4, m)
		} else {
			scoreRowsVec(&b.KT[0], b.Cols, q, b.QStride*4, b.Rows-r0, b.Scale, s, b.SStride*4, m)
		}
	}
}

// ScoresGo is Scores' portable loop.
func (b *HeadBlock) ScoresGo(keys []float32, stride, t, n int) {
	b.checkRun(keys, stride, t, n)
	for r := b.firstRow(t); r < b.Rows; r++ {
		DotRowsGo(b.qRow(r), keys, stride, b.seen(r, t, n), b.Scale, b.S[r*b.SStride+t:])
	}
}

// transposeKeys writes m ≤ lanes keys into kt as cols columns of
// `lanes`, kt[lanes·j+i] = key_i[j], the lanes past m zeroed.
func transposeKeys(kt, keys []float32, stride, m, lanes, cols int) {
	if m == lanes && cols%vecLanes == 0 {
		for h := 0; h < lanes; h += vecLanes {
			transposeKeys8(&kt[h], &keys[h*stride], stride*4, cols, lanes*4)
		}
		return
	}
	for j := 0; j < cols; j++ {
		col := kt[j*lanes : (j+1)*lanes]
		for i := range col {
			col[i] = 0
			if i < m {
				col[i] = keys[i*stride+j]
			}
		}
	}
}

// Softmax turns every row's scores into probabilities, each row exactly
// as Softmax does it.
func (b *HeadBlock) Softmax() {
	if b.Rows == 1 {
		Softmax(b.sRow(0))
		return
	}
	b.check()
	r := 0
	switch {
	case simdLevel >= levelAVX512 && b.Rows >= 4:
		softmaxRows16(&b.S[0], b.SStride*4, b.Rows/4, b.Start+1)
		r = b.Rows &^ 3
	case simdLevel == levelAVX2 && b.Rows >= 2:
		softmaxRows8(&b.S[0], b.SStride*4, b.Rows/2, b.Start+1)
		r = b.Rows &^ 1
	}
	for ; r < b.Rows; r++ {
		Softmax(b.sRow(r))
	}
}

// SoftmaxGo is Softmax's portable loop.
func (b *HeadBlock) SoftmaxGo() {
	b.check()
	for r := 0; r < b.Rows; r++ {
		SoftmaxGo(b.sRow(r))
	}
}

// Accum adds the probability-weighted value rows of the n positions t..
// (rows of vals, `stride` apart) to every output row that sees them:
// AccumRows(out_r, p_r[t:t+seen], vals, stride), per element in ascending
// position. Called run by run from position 0 onto zeroed rows, it gives
// AccumRows' bits for the whole context.
func (b *HeadBlock) Accum(vals []float32, stride, t, n int) {
	if b.Rows == 1 {
		AccumRows(b.outRow(0), b.S[t:t+n:b.ctx()], vals, stride)
		return
	}
	b.checkRun(vals, stride, t, n)
	r := b.firstRow(t)
	if simdLevel >= levelAVX2 && b.Cols >= vecLanes {
		cols16 := 0
		if simdLevel >= levelAVX512 {
			cols16 = b.Cols / 16
		}
		cols8 := (b.Cols - 16*cols16) / vecLanes
		done := 16*cols16 + vecLanes*cols8
		for ; r+vecLanes <= b.Rows; r += vecLanes {
			c := b.seen(r, t, n)
			tri, out, w := min(vecLanes-1, n-c), r*b.OutStride, &b.S[r*b.SStride+t]
			if cols16 > 0 {
				accumRowsBlock16(&b.Out[out], b.OutStride*4, w, b.SStride*4, &vals[0], stride*4, c, tri, cols16)
			}
			if cols8 > 0 {
				accumRowsBlock8(&b.Out[out+16*cols16], b.OutStride*4, w, b.SStride*4, &vals[16*cols16], stride*4, c, tri, cols8)
			}
			for i := r; done < b.Cols && i < r+vecLanes; i++ {
				AccumRowsGo(b.outRow(i)[done:], b.S[i*b.SStride+t:][:b.seen(i, t, n)], vals[done:], stride)
			}
		}
	}
	for ; r < b.Rows; r++ {
		AccumRows(b.outRow(r), b.S[r*b.SStride+t:][:b.seen(r, t, n)], vals, stride)
	}
}

// AccumGo is Accum's portable loop.
func (b *HeadBlock) AccumGo(vals []float32, stride, t, n int) {
	b.checkRun(vals, stride, t, n)
	for r := b.firstRow(t); r < b.Rows; r++ {
		AccumRowsGo(b.outRow(r), b.S[r*b.SStride+t:][:b.seen(r, t, n)], vals, stride)
	}
}

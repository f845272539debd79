package kernels

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// headCase is one randomly drawn (sequence, head) of a causal attention
// pass, laid out the way the engine lays it out: query and output rows
// holding every head at a wider stride, keys and values in KV blocks of
// blockSize positions (0: one run) whose rows hold every KV head. All of
// it derives from the seed, so a failure replays.
type headCase struct {
	rows, start, cols, off int
	kvStride, qStride      int
	blockSize              int
	scale                  float32
	q                      []float32
	k, v                   [][]float32 // one slice per KV block
}

func drawHeadCase(seed int64) headCase {
	c := vecCase{r: rand.New(rand.NewSource(seed))}
	r := c.r
	h := headCase{
		rows:      1 + r.Intn(40),
		start:     []int{0, 0, r.Intn(8), r.Intn(70)}[r.Intn(4)],
		cols:      []int{1, 5, 8, 16, 24, 32, 33, 40, 64, 7, 128}[r.Intn(11)],
		blockSize: []int{0, 1, 3, 8, 12, 16, 5}[r.Intn(7)],
		scale:     float32(r.NormFloat64()),
	}
	h.off = r.Intn(3) * h.cols
	h.kvStride = h.off + h.cols + r.Intn(2)*8 + r.Intn(2)
	h.qStride = h.kvStride + r.Intn(9)
	h.q = c.slice((h.rows-1)*h.qStride + h.off + h.cols)
	ctx, bs := h.start+h.rows, h.blockSize
	if bs == 0 {
		bs = ctx
	}
	for t := 0; t < ctx; t += bs {
		h.k = append(h.k, c.slice(bs*h.kvStride))
		h.v = append(h.v, c.slice(bs*h.kvStride))
	}
	return h
}

func (h headCase) String() string {
	return fmt.Sprintf("rows %d start %d cols %d block %d", h.rows, h.start, h.cols, h.blockSize)
}

// runs calls f with every KV run the context holds: the keys and values
// of positions t..t+n-1, starting at this head's columns.
func (h headCase) runs(ctx int, f func(k, v []float32, t, n int)) {
	for i, t := 0, 0; t < ctx; i++ {
		n := min(len(h.k[i])/h.kvStride, ctx-t)
		f(h.k[i][h.off:], h.v[i][h.off:], t, n)
		t += n
	}
}

// perRow is the per-row attention the block replaces, one query row at a
// time on the per-row ops: the scores' run-by-run DotRows, Softmax, then
// AccumRows run by run onto a zeroed row. It returns every row's
// probabilities and output.
func (h headCase) perRow(dotRows func(q, rows []float32, stride, n int, scale float32, out []float32),
	softmax func([]float32), accumRows func(out, w, rows []float32, stride int)) (probs, outs [][]float32) {
	for r := 0; r < h.rows; r++ {
		pos := h.start + r
		q := h.q[r*h.qStride+h.off:][:h.cols]
		sc := make([]float32, pos+1)
		h.runs(pos+1, func(k, _ []float32, t, n int) { dotRows(q, k, h.kvStride, n, h.scale, sc[t:]) })
		softmax(sc)
		out := make([]float32, h.cols)
		h.runs(pos+1, func(_, v []float32, t, n int) { accumRows(out, sc[t:t+n], v, h.kvStride) })
		probs, outs = append(probs, sc), append(outs, out)
	}
	return probs, outs
}

// block runs the case as one HeadBlock, the shipped routines or the Go
// loops, and returns every row's probabilities and output.
func (h headCase) block(goLoops bool) (probs, outs [][]float32) {
	ctx := h.start + h.rows
	sStride := ctx + h.off // scores at a stride wider than the context
	b := HeadBlock{Rows: h.rows, Start: h.start, Cols: h.cols, Scale: h.scale,
		Q: h.q[h.off:], QStride: h.qStride,
		S: make([]float32, h.rows*sStride), SStride: sStride,
		Out: make([]float32, (h.rows-1)*h.qStride+h.cols), OutStride: h.qStride,
		KT: make([]float32, 16*h.cols)}
	scores, softmax, accum := b.Scores, b.Softmax, b.Accum
	if goLoops {
		scores, softmax, accum = b.ScoresGo, b.SoftmaxGo, b.AccumGo
	}
	h.runs(ctx, func(k, _ []float32, t, n int) { scores(k, h.kvStride, t, n) })
	softmax()
	h.runs(ctx, func(_, v []float32, t, n int) { accum(v, h.kvStride, t, n) })
	for r := 0; r < h.rows; r++ {
		probs = append(probs, b.S[r*sStride:][:h.start+r+1])
		outs = append(outs, b.Out[r*h.qStride:][:h.cols])
	}
	return probs, outs
}

// TestHeadBlockMatchesPerRowQuick holds the head block, as shipped and as
// Go loops, to the per-row ops bit for bit: every row's probabilities and
// output, over ragged head dims, rows with fewer than eight keys, key runs
// split across KV blocks and causal offsets. It runs at whatever -simd
// level the test binary is stepped down to.
func TestHeadBlockMatchesPerRowQuick(t *testing.T) {
	prop := func(seed int64) bool {
		h := drawHeadCase(seed)
		wantP, wantO := h.perRow(DotRows, Softmax, AccumRows)
		goP, goO := h.perRow(DotRowsGo, SoftmaxGo, AccumRowsGo)
		ok := true
		for name, got := range map[string][2][][]float32{
			"per-row Go loops": {goP, goO},
			"block":            pair(h.block(false)),
			"block Go loops":   pair(h.block(true)),
		} {
			for r := range wantP {
				ok = sameBits(t, fmt.Sprintf("%s %v row %d probabilities", name, h, r), seed, wantP[r], got[0][r]) && ok
				ok = sameBits(t, fmt.Sprintf("%s %v row %d output", name, h, r), seed, wantO[r], got[1][r]) && ok
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 600, Rand: rand.New(rand.NewSource(40))}); err != nil {
		t.Error(err)
	}
}

func pair(p, o [][]float32) [2][][]float32 { return [2][][]float32{p, o} }

func TestHeadBlockPanicsOutOfRange(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	fits := func() HeadBlock {
		return HeadBlock{Rows: 4, Start: 2, Cols: 8, Scale: 1, Q: make([]float32, 4*8), QStride: 8,
			S: make([]float32, 4*6), SStride: 6, Out: make([]float32, 4*8), OutStride: 8, KT: make([]float32, 128)}
	}
	keys := make([]float32, 6*8)
	b := fits()
	b.Scores(keys, 8, 0, 6) // exactly fits
	b.Softmax()
	b.Accum(keys, 8, 0, 6)
	b = fits()
	mustPanic("run past the context", func() { b.Scores(keys, 8, 1, 6) })
	mustPanic("keys too short", func() { b.Accum(keys[:40], 8, 0, 6) })
	b.S = b.S[:23]
	mustPanic("scores too short", func() { b.Softmax() })
	b = fits()
	b.KT = b.KT[:127]
	mustPanic("scratch too short", func() { b.Scores(keys, 8, 0, 6) })
	b = fits()
	b.OutStride = 7
	mustPanic("output stride below cols", func() { b.Accum(keys, 8, 0, 6) })

	// A one-row block leaves the checks to the per-row ops.
	one := HeadBlock{Rows: 1, Start: 5, Cols: 8, Scale: 1, Q: make([]float32, 8), QStride: 8,
		S: make([]float32, 8), SStride: 8, Out: make([]float32, 8), OutStride: 8}
	one.Scores(keys, 8, 0, 6) // exactly fits
	one.Softmax()
	one.Accum(keys, 8, 0, 6)
	mustPanic("one row: run past the context", func() { one.Scores(keys, 8, 1, 6) })
	mustPanic("one row: accumulated past the context", func() { one.Accum(keys, 8, 1, 6) })
	mustPanic("one row: keys too short", func() { one.Scores(keys[:40], 8, 0, 6) })
	mustPanic("one row: values too short", func() { one.Accum(keys[:40], 8, 0, 6) })
	one.Out = make([]float32, 7)
	mustPanic("one row: output too short", func() { one.Accum(keys, 8, 0, 6) })
	one.S = make([]float32, 5)
	mustPanic("one row: scores too short", func() { one.Softmax() })
}

// TestHeadBlockSoftmaxMatchesSoftmax drives the block's softmax with the
// row ops' own test rows — logits across exp's whole range, its edges and
// every special — row r of the block being the first Start+r+1 of them.
func TestHeadBlockSoftmaxMatchesSoftmax(t *testing.T) {
	prop := func(seed int64) bool {
		c := drawRowCase(seed)
		rows := 1 + c.r.Intn(min(c.n, 24))
		start := c.n - rows
		stride := c.n + c.r.Intn(20)
		b := HeadBlock{Rows: rows, Start: start, S: make([]float32, rows*stride), SStride: stride}
		for r := 0; r < rows; r++ {
			copy(b.S[r*stride:], c.row(start+r+1))
		}
		want := clone(b.S)
		for r := 0; r < rows; r++ {
			SoftmaxGo(want[r*stride:][:start+r+1])
		}
		b.Softmax()
		return sameBits(t, fmt.Sprintf("block softmax, %d rows from %d", rows, start+1), seed, want, b.S)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Error(err)
	}
}

package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

var denormal = math.Float32frombits(0x00000123)

// vecCase is one randomly drawn operand set for the vector ops; everything
// derives from the seed, so a failure replays. Lengths cover 0..67 — no
// vector block, exactly one, several plus every tail — and every slice
// starts at an arbitrary element of its backing array.
type vecCase struct {
	r *rand.Rand
	n int
}

func drawVecCase(seed int64) vecCase {
	r := rand.New(rand.NewSource(seed))
	return vecCase{r: r, n: r.Intn(68)}
}

// slice returns n values at an unaligned offset, about one in eight a
// special: signed zeros, a denormal, infinities, and the one NaN pattern
// simd_test.go explains.
func (c vecCase) slice(n int) []float32 {
	off := c.r.Intn(8) // float32 slices are only ever 4-byte aligned
	v := randMat(c.r, off+n)[off:]
	if c.r.Intn(3) > 0 {
		sprinkle(c.r, v, 0, negZero, denormal, -denormal, inf, -inf, nan, math.MaxFloat32, 1e-30)
	}
	return v
}

func clone(v []float32) []float32 { return append([]float32(nil), v...) }

// expsOf is the exponent range of v, the slow way.
func expsOf(v []float32) expRange {
	r := noExps
	for _, x := range v {
		if x != 0 {
			e := uint8(math.Float32bits(x) >> 23)
			r.lo, r.hi = min(r.lo, e), max(r.hi, e)
		}
	}
	return r
}

// sameBits reports a mismatch between an op's two implementations.
func sameBits(t *testing.T, op string, seed int64, want, got []float32) bool {
	t.Helper()
	if i, ok := bitsEqual(want, got); !ok {
		t.Errorf("%s seed %d: element %d of %d is %x, Go loop %x", op, seed, i, len(want),
			math.Float32bits(got[i]), math.Float32bits(want[i]))
		return false
	}
	return true
}

func TestVecOpsMatchGoLoopsQuick(t *testing.T) {
	prop := func(seed int64) bool {
		c := drawVecCase(seed)
		ok := true

		x := c.slice(c.n)
		want, got := clone(x), clone(x)
		ReLUGo(want)
		ReLU(got)
		ok = sameBits(t, "ReLU", seed, want, got) && ok

		src := c.slice(c.n)
		want, got = clone(x), clone(x)
		AddGo(want, src)
		Add(got, src)
		ok = sameBits(t, "Add", seed, want, got) && ok

		want, got = make([]float32, c.n), c.slice(c.n)
		RoundBF16IntoGo(want, x)
		RoundBF16Into(got, x)
		ok = sameBits(t, "RoundBF16Into", seed, want, got) && ok
		inPlace := clone(x)
		RoundBF16Into(inPlace, inPlace)
		ok = sameBits(t, "RoundBF16Into in place", seed, want, inPlace) && ok
		// The GEMMs' rounding pass: the same values, and (where the level has
		// fused tiles to decide for) fmaExact's verdict on their exponents.
		wexps := expRange{lo: uint8(100 + c.r.Intn(40)), hi: 140}
		got = c.slice(c.n)
		exact := roundActivations(got, x, 2, wexps)
		ok = sameBits(t, "roundActivations", seed, want, got) && ok
		if wantExact := simdLevel == "avx512" && fmaExact(expsOf(want), wexps); exact != wantExact {
			t.Errorf("roundActivations seed %d: exact = %v over %+v, want %v", seed, exact, expsOf(want), wantExact)
			ok = false
		}

		// Attention shapes: head dims on and off the vector path, rows at a
		// stride wider than the head (a KV row holds every head).
		cols := []int{0, 1, 8, 16, 24, 32, 40, 64, 5, 33}[c.r.Intn(10)]
		stride := cols + c.r.Intn(3)*8 + c.r.Intn(2)
		rows := c.slice(max(0, (c.n-1)*stride+cols))
		q := c.slice(cols)
		scale := float32(c.r.NormFloat64())
		want, got = c.slice(c.n), c.slice(c.n)
		DotRowsGo(q, rows, stride, c.n, scale, want)
		DotRows(q, rows, stride, c.n, scale, got)
		ok = sameBits(t, "DotRows", seed, want, got) && ok

		w := c.slice(c.n)
		acc := c.slice(cols)
		want, got = clone(acc), clone(acc)
		AccumRowsGo(want, w, rows, stride)
		AccumRows(got, w, rows, stride)
		ok = sameBits(t, "AccumRows", seed, want, got) && ok
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(30))}); err != nil {
		t.Error(err)
	}
}

// TestRoundBF16IntoEveryExponent sweeps the rounding's edge values — ties,
// carries into the exponent, overflow to Inf, signalling NaNs with payload
// only in the dropped half — through the vector routine.
func TestRoundBF16IntoEveryExponent(t *testing.T) {
	var src []float32
	for exp := uint32(0); exp < 256; exp++ {
		for _, frac := range []uint32{0, 1, 0x7fff, 0x8000, 0x8001, 0xffff, 0x10000, 0x17fff, 0x18000, 0x7f8000, 0x7fffff} {
			for _, sign := range []uint32{0, 1 << 31} {
				src = append(src, math.Float32frombits(sign|exp<<23|frac))
			}
		}
	}
	got, ranged := make([]float32, len(src)), make([]float32, len(src))
	RoundBF16Into(got, src)
	roundActivations(ranged, src, 2, noExps)
	for i, v := range src {
		want := tensor.RoundBF16(v)
		for name, g := range map[string]float32{"RoundBF16Into": got[i], "roundActivations": ranged[i]} {
			if math.Float32bits(g) != math.Float32bits(want) {
				t.Fatalf("%s(%x) = %x, tensor.RoundBF16 %x",
					name, math.Float32bits(v), math.Float32bits(g), math.Float32bits(want))
			}
		}
	}
}

// TestAllBF16IsToBF16RoundTrip ties the pack-time storage test to its
// definition: a value is kept in 16 bits exactly when tensor.ToBF16 gives
// it back unchanged.
func TestAllBF16IsToBF16RoundTrip(t *testing.T) {
	check := func(bits uint32) bool {
		v := math.Float32frombits(bits)
		return allBF16([]float32{v}) == (uint32(tensor.ToBF16(v))<<16 == bits)
	}
	for _, hi := range []uint32{0, 0x8000, 0x3f80, 0x7f7f, 0x7f80, 0xff80, 0x7f81, 0x7fc0, 0xffc1, 0x7fff} {
		for _, lo := range []uint32{0, 1, 0x8000, 0xffff} {
			if !check(hi<<16 | lo) {
				t.Errorf("allBF16 disagrees with ToBF16 on %08x", hi<<16|lo)
			}
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestRowsOpsPanicOutOfRange(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	q, rows, out := make([]float32, 8), make([]float32, 8*8), make([]float32, 9)
	mustPanic("rows too short", func() { DotRows(q, rows, 8, 9, 1, out) })
	mustPanic("out too short", func() { DotRows(q, rows, 8, 8, 1, out[:7]) })
	mustPanic("stride below cols", func() { DotRows(q, rows, 4, 2, 1, out) })
	mustPanic("accum rows too short", func() { AccumRows(q, out, rows, 8) })
	DotRows(q, rows, 8, 8, 1, out) // exactly fits
	AccumRows(q, out[:8], rows, 8)
}

// TestPackStorageFollowsData pins the lossless 16-bit rule: an FP32 pack
// whose weights are all bfloat16 values is stored in 16 bits and still
// multiplies unrounded activations with no zero skip — the FP32 pack's
// bits; one value that is not falls back to 32-bit storage.
func TestPackStorageFollowsData(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, m := range []int{1, 4, 5} {
		k, n := 70, 45
		b := randMat(r, k*n)
		RoundBF16IntoGo(b, b)
		sprinkle(r, b, 0, negZero, inf, -inf) // 0·Inf must not be skipped on an FP32 pack
		a := randMat(r, m*k)
		sprinkle(r, a, 0, negZero)

		narrow, narrowT := PackB(k, n, b), PackBTrans(n, k, b)
		if narrow.bf == nil || narrow.data != nil || narrow.BF16 || narrowT.bf == nil {
			t.Fatalf("bfloat16-representable weights: bf=%v data=%v BF16=%v", narrow.bf != nil, narrow.data != nil, narrow.BF16)
		}
		if got, want := narrow.Bytes(), int64(narrow.Panels()*k*PanelCols*2); got != want {
			t.Errorf("narrow Bytes() = %d, want %d", got, want)
		}
		want := make([]float32, m*n)
		GemmNaive(m, n, k, a, b, want)
		for name, f := range map[string]func(int, []float32, *PackedB, []float32){"simd": GemmPacked, "generic": GemmPackedGeneric} {
			got := make([]float32, m*n)
			f(m, a, narrow, got)
			if i, ok := bitsEqual(want, got); !ok {
				t.Errorf("m=%d %s: 16-bit-stored FP32 pack differs from GemmNaive at %d (%x vs %x)",
					m, name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}

		b[k*n/2] = 1.1 // a single weight that is not a bfloat16
		wide := PackB(k, n, b)
		if wide.bf != nil || wide.data == nil {
			t.Fatal("non-representable weight must fall back to 32-bit storage")
		}
		if wide.Bytes() != 2*narrow.Bytes() {
			t.Errorf("32-bit Bytes() = %d, want twice %d", wide.Bytes(), narrow.Bytes())
		}
		GemmNaive(m, n, k, a, b, want)
		got := make([]float32, m*n)
		GemmPacked(m, a, wide, got)
		if i, ok := bitsEqual(want, got); !ok {
			t.Errorf("m=%d: 32-bit pack differs from GemmNaive at %d", m, i)
		}
	}
}

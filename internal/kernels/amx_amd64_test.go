package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// amxGemm is a BF16 pack's GEMM on the TMUL routine whatever M is: the
// narrowing pass, then the tiles.
func amxGemm(m int, a []float32, pb *PackedB, c []float32) {
	kp := padK(pb.K)
	an := make([]uint16, m*kp)
	narrowRows(an, a, m, pb.K, kp)
	gemmPanelsAMX(0, m, 0, pb.Panels(), an, pb, c)
}

// tmulProduct is one activation and weight at position k of a block.
type tmulProduct struct {
	k    int
	a, w float32
}

// TestTMULRule pins the rule GemmTileBF16 states, case by case, on the Go
// oracle and — on a host with AMX — on the hardware, through the TMUL
// routine with a one-element C tile (a ragged row and column). A case is
// one output element over blocks of 32 k; an earlier block sets the
// accumulator a later one starts from.
func TestTMULRule(t *testing.T) {
	const (
		x    = 1.9921875 * 0x1p-25 // just below half an ulp of 1
		tiny = 0x1p-126            // the least normal float32
	)
	inf := float32(math.Inf(1))
	sixteen := []tmulProduct{}
	for k := 0; k < 32; k += 2 {
		sixteen = append(sixteen, tmulProduct{k, 0x1p-24, 1})
	}
	cases := []struct {
		name   string
		blocks [][]tmulProduct
		want   uint32
	}{
		{"sixteen 2⁻²⁴ products meet before 1 does (ascending k gives 1)",
			[][]tmulProduct{{{0, 1, 1}}, sixteen}, math.Float32bits(1 + 0x1p-20)},
		{"2⁻⁴⁰ meets the 1 in the even chain",
			[][]tmulProduct{{{0, 1, 1}, {1, -1, 1}, {2, 0x1p-40, 1}}}, 0},
		{"alignment: +x is lost against the even chain's 1",
			[][]tmulProduct{{{0, 1, 1}, {1, -1, 1}, {2, x, 1}}}, 0},
		{"alignment: −x is not",
			[][]tmulProduct{{{0, 1, 1}, {1, -1, 1}, {2, -x, 1}}}, math.Float32bits(-0x1p-24)},
		{"c + (e + o) rounds to even on a tie",
			[][]tmulProduct{{{0, 1, 1}}, {{0, 0x1p-23, 1}, {1, 0x1p-24, 1}}}, math.Float32bits(1 + 0x1p-22)},
		{"DAZ: a denormal activation reads as zero",
			[][]tmulProduct{{{0, 0x1p-127, 0x1p100}}}, 0},
		{"DAZ: a denormal weight reads as zero",
			[][]tmulProduct{{{0, 0x1p100, 0x1p-127}}}, 0},
		{"FTZ: a chain below 2⁻¹²⁶ flushes",
			[][]tmulProduct{{{0, 0x1p-70, 0x1p-60}, {2, 0x1p-110, 1}}}, math.Float32bits(0x1p-110)},
		{"a product below 2⁻¹²⁶ counts against a normal chain",
			[][]tmulProduct{{{0, 0x1p-110, 1}, {2, 1.5 * 0x1p-65, 0x1p-65}}}, math.Float32bits(0x1p-110 + 1.5*0x1p-130)},
		{"FTZ keeps the sign",
			[][]tmulProduct{{{0, -1.5 * tiny, 1}}, {{0, 0x1p-63, 0x1p-63}}}, 0x80000000},
		{"signed zeros: −0 + (+0) is +0",
			[][]tmulProduct{{{0, -1.5 * tiny, 1}}, {{0, 0x1p-63, 0x1p-63}}, {}}, 0},
		{"signed zeros: −0 products leave the chains at +0",
			[][]tmulProduct{{{0, -1, 0}, {1, 0, -1}}}, 0},
		{"overflow to +Inf",
			[][]tmulProduct{{{0, 0x1p100, 0x1p100}}}, 0x7f800000},
		{"a product past float32's range is exact until its chain rounds",
			[][]tmulProduct{{{0, 0x1p100, 0x1p100}, {2, -0x1p100, 0x1p100}}}, 0x7f800000},
		{"Inf·0 is NaN (no zero skip)",
			[][]tmulProduct{{{0, inf, 0}}}, 0xffc00000},
	}
	for _, tc := range cases {
		k := 32 * max(1, len(tc.blocks))
		a, b := make([]float32, k), make([]float32, k)
		for blk, products := range tc.blocks {
			for _, p := range products {
				a[32*blk+p.k], b[32*blk+p.k] = p.a, p.w
			}
		}
		got := []float32{12345}
		GemmTileBF16(1, 1, k, a, b, got)
		if g := math.Float32bits(got[0]); g != tc.want {
			t.Errorf("%s: GemmTileBF16 gives %08x, want %08x", tc.name, g, tc.want)
		}
		if simdLevel == levelAMX {
			amxGemm(1, a, PackBBF16(k, 1, b), got)
			if g := math.Float32bits(got[0]); g != tc.want {
				t.Errorf("%s: TDPBF16PS gives %08x, want %08x", tc.name, g, tc.want)
			}
		}
	}
	if simdLevel < levelAMX {
		t.Skip("no AMX: the rule was checked on the Go oracle only")
	}

	// The seeded differential: GEMMs of ragged shapes around the 32-row
	// band, the panel pair and the block of k, with operands spread from 2^±0
	// to 2^±90 (products into and past float32's range at the top) and one
	// activation in eight zero.
	r := rand.New(rand.NewSource(41))
	outputs := 0
	for _, spread := range []int{0, 10, 30, 60, 90} {
		for g := 0; g < 60; g++ {
			m, n, k := 1+r.Intn(40), 1+r.Intn(40), []int{32, 64, 96, 33, 100}[r.Intn(5)]
			a, b := randMat(r, m*k), randMat(r, k*n)
			for _, v := range [][]float32{a, b} {
				for i := range v {
					v[i] = float32(math.Ldexp(float64(v[i]), r.Intn(2*spread+1)-spread))
				}
			}
			sprinkle(r, a, 0)
			want, got := make([]float32, m*n), make([]float32, m*n)
			GemmTileBF16(m, n, k, a, b, want)
			amxGemm(m, a, PackBBF16(k, n, b), got)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("spread 2^±%d, %d×%d×%d: element %d is %08x on TMUL, %08x by the rule",
					spread, m, n, k, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
			outputs += m * n
		}
	}
	if outputs < 100_000 {
		t.Errorf("the differential covered %d outputs, want at least 100 000", outputs)
	}
}

// TestVDPBF16PSRule pins why the vector kernels do not use VDPBF16PS, the
// AVX-512 bfloat16 dot product: in each lane it adds the odd product to
// the accumulator and rounds, then the even one and rounds — so the pair
// order matters, and it is not TMUL's rule, where the two chains meet
// before the accumulator does.
func TestVDPBF16PSRule(t *testing.T) {
	if simdLevel < levelAVX512 {
		t.Skip("no 512-bit level")
	}
	if eax, _, _, _ := cpuid(7, 1); eax&(1<<5) == 0 {
		t.Skip("no AVX512_BF16")
	}
	pair := func(even, odd float32) uint32 {
		return uint32(bf16Bits(even)) | uint32(bf16Bits(odd))<<16
	}
	var acc [16]float32
	var a, b [16]uint32
	acc[0], a[0], b[0] = 1, pair(-1, 0x1p-24), pair(1, 1)
	acc[1], a[1], b[1] = 1, pair(0x1p-24, -1), pair(1, 1)
	vdpbf16ps(&acc, &a, &b)
	if acc[0] != 0 || acc[1] != 0x1p-24 {
		t.Errorf("VDPBF16PS from 1 with pairs (−1, 2⁻²⁴) and (2⁻²⁴, −1): %g and %g, want 0 and 2⁻²⁴", acc[0], acc[1])
	}
	for _, p := range [][2]float32{{-1, 0x1p-24}, {0x1p-24, -1}} {
		av, bv, c := make([]float32, 64), make([]float32, 64), []float32{0}
		av[0], bv[0] = 1, 1 // the first block leaves c = 1
		av[32], av[33], bv[32], bv[33] = p[0], p[1], 1, 1
		if GemmTileBF16(1, 1, 64, av, bv, c); c[0] != 0x1p-24 {
			t.Errorf("TMUL rule from 1 with the pair (%g, %g): %g, want 2⁻²⁴ in either order", p[0], p[1], c[0])
		}
	}
}

// bf16Bits is v's upper half: v must be a bfloat16.
func bf16Bits(v float32) uint16 { return uint16(math.Float32bits(v) >> 16) }

// TestAMXThreadsAndPreemption runs TMUL GEMMs on eight goroutines at a time,
// each locked to an OS thread that exits with it — so every wave meets new
// threads, and each one's first tile instruction faults into the kernel to
// get its tile state — while other goroutines spin and allocate and one
// forces collections, so the runtime interrupts the GEMMs with preemption
// signals throughout. Every result must be the oracle's bits.
func TestAMXThreadsAndPreemption(t *testing.T) {
	if simdLevel < levelAMX {
		t.Skip("no AMX")
	}
	r := rand.New(rand.NewSource(42))
	m, n, k := 128, 90, 512 // a ragged last panel
	a, b := randMat(r, m*k), randMat(r, k*n)
	pb := PackBBF16(k, n, b)
	want := make([]float32, m*n)
	GemmTileBF16(m, n, k, a, b, want)

	stop := make(chan struct{})
	var storm sync.WaitGroup
	for g := 0; g < 4; g++ {
		storm.Add(1)
		go func() {
			defer storm.Done()
			var garbage [][]byte
			for x := 0; ; x++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 1<<16; i++ { // no call inside: only a signal preempts it
					x ^= i * x
				}
				if garbage = append(garbage, make([]byte, 1<<10+x&0xff)); len(garbage) > 64 {
					garbage = garbage[:0]
				}
			}
		}()
	}
	storm.Add(1)
	go func() {
		defer storm.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()

	errs := make(chan string, 8)
	for wave := 0; wave < 4; wave++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.LockOSThread() // never unlocked: the thread exits with the goroutine
				var job PackedJob
				got := make([]float32, m*n)
				for it := 0; it < 150; it++ {
					clear(got)
					gemmPackedPooled(nil, &job, m, a, pb, got, 0)
					if i, ok := bitsEqual(want, got); !ok {
						select {
						case errs <- fmt.Sprintf("wave %d: element %d is %08x, want %08x", wave, i,
							math.Float32bits(got[i]), math.Float32bits(want[i])):
						default:
						}
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	close(stop)
	storm.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

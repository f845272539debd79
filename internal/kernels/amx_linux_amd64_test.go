package kernels

import (
	"syscall"
	"testing"
	"unsafe"
)

// TestAMXDetection holds the level to its three conditions: the amx level
// needs the CPU's AMX-BF16 and AMX-TILE bits, the OS saving the tile state
// in XCR0, and the permission request granted — each alone leaves the host
// at avx512. On this host, SIMDLevel (unforced) must say amx exactly when
// all three hold.
func TestAMXDetection(t *testing.T) {
	full := hostFacts{maxLeaf: 7, ecx1: osxsave | avx, ebx7: avx2 | avx512f, edx7: amxBF16 | amxTile,
		xcr0: ymmXMM | zmmK | tileState, amxGranted: true}
	if got := full.level(); got != levelAMX {
		t.Errorf("every condition met: level %s, want amx", levelNames[got])
	}
	for name, f := range map[string]hostFacts{
		"no AMX-BF16":       {maxLeaf: 7, ecx1: osxsave | avx, ebx7: avx2 | avx512f, edx7: amxTile, xcr0: full.xcr0, amxGranted: true},
		"no AMX-TILE":       {maxLeaf: 7, ecx1: osxsave | avx, ebx7: avx2 | avx512f, edx7: amxBF16, xcr0: full.xcr0, amxGranted: true},
		"no XTILEDATA":      {maxLeaf: 7, ecx1: osxsave | avx, ebx7: avx2 | avx512f, edx7: full.edx7, xcr0: ymmXMM | zmmK | 1<<17, amxGranted: true},
		"permission denied": {maxLeaf: 7, ecx1: osxsave | avx, ebx7: avx2 | avx512f, edx7: full.edx7, xcr0: full.xcr0},
	} {
		if got := f.level(); got != levelAVX512 {
			t.Errorf("%s: level %s, want avx512", name, levelNames[got])
		}
	}
	if got := (hostFacts{maxLeaf: 7, ecx1: osxsave | avx, ebx7: avx2, edx7: full.edx7, xcr0: full.xcr0, amxGranted: true}).level(); got != levelAVX2 {
		t.Errorf("AMX without AVX-512: level %s, want avx2", levelNames[got])
	}

	// This host, read independently of readHost.
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, edx7 := cpuid(7, 0)
	var xcr0 uint32
	if ecx1&osxsave != 0 {
		xcr0, _ = xgetbv()
	}
	const archGetXcompPerm, xtiledata = 0x1022, 1 << 18
	var permitted uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archGetXcompPerm, uintptr(unsafe.Pointer(&permitted)), 0)
	avx512 := ebx7&avx512f != 0 && xcr0&zmmK == zmmK && xcr0&ymmXMM == ymmXMM
	want := avx512 && edx7&(amxBF16|amxTile) == amxBF16|amxTile && xcr0&tileState == tileState &&
		errno == 0 && permitted&xtiledata != 0
	if got := detectSIMD() == levelAMX; got != want {
		t.Errorf("detected amx = %v; CPUID.7.0:EDX %#x, XCR0 %#x, permitted %#x (errno %v): want %v",
			got, edx7, xcr0, permitted, errno, want)
	}
	t.Logf("CPUID.7.0:EDX %#x, XCR0 %#x, permitted xstate %#x: %s", edx7, xcr0, permitted, levelNames[detectSIMD()])
}

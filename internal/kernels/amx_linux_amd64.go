package kernels

import "syscall"

// requestAMX asks Linux for the AMX tile data state, without which the
// first tile instruction faults: arch_prctl(ARCH_REQ_XCOMP_PERM,
// XFEATURE_XTILEDATA). The grant covers every thread of the process; each
// thread's first tile instruction then takes one fault in which the kernel
// enlarges that thread's saved state.
func requestAMX() bool {
	const archReqXcompPerm, xfeatureXtiledata = 0x1023, 18
	_, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archReqXcompPerm, xfeatureXtiledata, 0)
	return errno == 0
}

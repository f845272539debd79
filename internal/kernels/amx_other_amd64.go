//go:build !linux

package kernels

// requestAMX reports that this OS is not known to grant the AMX tile data
// state.
func requestAMX() bool { return false }

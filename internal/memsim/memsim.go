// Package memsim models the memory subsystem of the CPU servers: HBM/DDR
// tiering under the SPR Max memory modes (flat, cache, HBM-only), the
// quadrant vs. SNC-4 clustering modes, bandwidth scaling with active core
// count, and the UPI penalty of crossing sockets (§II-E, Figs 13–16).
//
// The model prices a working set (weights + KV cache) with an effective
// streaming bandwidth: capacity determines how much of the footprint each
// tier serves, and the tiers' STREAM bandwidths compose harmonically. The
// clustering and socket terms then degrade that bandwidth according to the
// fraction of accesses that leave the local NUMA domain.
package memsim

import (
	"fmt"

	"repro/internal/hw"
)

// MemMode is an SPR Max HBM memory mode (§II-E).
type MemMode int

const (
	// Flat exposes HBM and DDR as separate NUMA nodes; software allocates
	// HBM first (the paper's numactl policy) and spills to DDR.
	Flat MemMode = iota
	// Cache uses HBM as a memory-side cache in front of DDR.
	Cache
	// HBMOnly uses HBM exclusively; the working set must fit in it.
	HBMOnly
	// DDROnly is the plain configuration of CPUs without HBM.
	DDROnly
)

// String returns the mode's conventional name.
func (m MemMode) String() string {
	switch m {
	case Flat:
		return "flat"
	case Cache:
		return "cache"
	case HBMOnly:
		return "hbm-only"
	case DDROnly:
		return "ddr"
	default:
		return fmt.Sprintf("memmode(%d)", int(m))
	}
}

// ParseMemMode is the inverse of MemMode.String.
func ParseMemMode(s string) (MemMode, error) {
	for _, m := range []MemMode{Flat, Cache, HBMOnly, DDROnly} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown memmode %q (want flat, cache, hbm-only or ddr)", s)
}

// ClusterMode is an SPR clustering mode (§II-E).
type ClusterMode int

const (
	// Quad presents one NUMA node per socket.
	Quad ClusterMode = iota
	// SNC4 divides a socket into four sub-NUMA clusters. Following the
	// paper's setup (no NUMA-aware allocation inside the framework), a
	// fixed fraction of accesses land in remote sub-clusters.
	SNC4
)

// String returns the mode's conventional name.
func (m ClusterMode) String() string {
	if m == Quad {
		return "quad"
	}
	return "snc"
}

// ParseClusterMode is the inverse of ClusterMode.String.
func ParseClusterMode(s string) (ClusterMode, error) {
	for _, m := range []ClusterMode{Quad, SNC4} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown cluster %q (want quad or snc)", s)
}

// Calibration constants for effects the paper measures but Table I does
// not spell out. Each is chosen to land the corresponding figure's trend
// (see DESIGN.md shape targets).
const (
	// cacheModeHitBWFrac is the fraction of raw HBM bandwidth available
	// when HBM serves as a memory-side cache (tag lookups and writebacks
	// cost a few percent) — makes flat mode "slightly outperform" cache
	// mode when the working set fits, as in Fig 13.
	cacheModeHitBWFrac = 0.93
	// cacheModeMissBWFrac discounts DDR bandwidth for cache-mode misses,
	// which pay a backfill write into HBM besides the demand read.
	cacheModeMissBWFrac = 0.80
	// sncRemoteFraction is the fraction of accesses that land in a remote
	// sub-NUMA cluster when allocation is not NUMA-aware (3 of 4 domains
	// are remote for uniformly spread data).
	sncRemoteFraction = 0.75
	// sncRemoteBWFrac is the relative bandwidth of a remote sub-NUMA
	// access (mesh hops + remote CHA); drives the snc degradation and the
	// remote-LLC-access counter of Fig 15.
	sncRemoteBWFrac = 0.70
	// crossSocketRemoteFraction is the fraction of accesses served by the
	// other socket when a workload spans two sockets with interleaved
	// data (Fig 16's 96-core case).
	crossSocketRemoteFraction = 0.5
	// serialFraction is the Amdahl serial fraction of the inference
	// runtime's parallel regions; calibrated so 48 cores give the paper's
	// 2.93× prefill speedup over 12 cores (Fig 14).
	serialFraction = 0.011
	// crossSocketSerialFraction replaces serialFraction when threads span
	// sockets: UPI-coherent synchronization is far more expensive.
	crossSocketSerialFraction = 0.05
	// bwSaturationCores: a socket reaches half its STREAM bandwidth with
	// this many active cores; calibrated so 12→48 cores speeds decode by
	// the paper's 2.2× (Fig 14).
	bwSaturationCores = 32
)

// Config is a concrete CPU server configuration: which CPU, how many
// active cores, and the memory/clustering modes.
type Config struct {
	CPU     hw.CPU
	Cores   int
	Mem     MemMode
	Cluster ClusterMode
}

// Name returns the paper's configuration label, e.g. "quad_flat".
func (c Config) Name() string {
	return c.Cluster.String() + "_" + c.Mem.String()
}

// SocketsUsed returns how many sockets the active cores span.
func (c Config) SocketsUsed() int {
	s := (c.Cores + c.CPU.CoresPerSocket - 1) / c.CPU.CoresPerSocket
	if s < 1 {
		s = 1
	}
	if s > c.CPU.Sockets {
		s = c.CPU.Sockets
	}
	return s
}

// Validate reports impossible configurations.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("memsim: non-positive core count %d", c.Cores)
	case c.Cores > c.CPU.CoresPerSocket*c.CPU.Sockets:
		return fmt.Errorf("memsim: %d cores exceed %s's %d", c.Cores, c.CPU.Name,
			c.CPU.CoresPerSocket*c.CPU.Sockets)
	case c.Mem != DDROnly && c.CPU.HBM.CapacityGB == 0:
		return fmt.Errorf("memsim: %s mode requires HBM, %s has none", c.Mem, c.CPU.Name)
	}
	return nil
}

// Bandwidth describes the effective memory bandwidth for a working set,
// with the locality breakdown the counter model consumes.
type Bandwidth struct {
	// EffectiveGBs is the sustained streaming bandwidth for the working
	// set under this configuration, already scaled by active cores.
	EffectiveGBs float64
	// HBMFraction is the fraction of the footprint served from HBM.
	HBMFraction float64
	// RemoteFraction is the fraction of accesses leaving the local NUMA
	// domain (sub-NUMA cluster or socket).
	RemoteFraction float64
	// UPIFraction is the fraction of accesses crossing sockets over UPI.
	UPIFraction float64
}

// coreBWScale returns the fraction of a socket's STREAM bandwidth that
// `cores` active cores can draw, normalized so the full socket draws 1.0.
func coreBWScale(cores, perSocket int) float64 {
	f := func(c float64) float64 { return c / (c + bwSaturationCores) }
	return f(float64(cores)) / f(float64(perSocket))
}

// Bandwidth prices a working set of footprintGB under the configuration.
func (c Config) Bandwidth(footprintGB float64) (Bandwidth, error) {
	if err := c.Validate(); err != nil {
		return Bandwidth{}, err
	}
	if footprintGB <= 0 {
		return Bandwidth{}, fmt.Errorf("memsim: non-positive footprint %g GB", footprintGB)
	}
	sockets := c.SocketsUsed()
	perSocketFootprint := footprintGB / float64(sockets)
	hbmCap := c.CPU.HBM.CapacityGB
	ddrBW := c.CPU.DDR.BandwidthGBs
	hbmBW := c.CPU.HBM.BandwidthGBs

	// Tier composition within one socket: time to stream 1 GB of the
	// working set, as a capacity-weighted harmonic mean of tier speeds.
	var hbmFrac, timePerGB float64
	switch c.Mem {
	case DDROnly:
		timePerGB = 1 / ddrBW
	case HBMOnly:
		if perSocketFootprint > hbmCap {
			return Bandwidth{}, fmt.Errorf(
				"memsim: %.1f GB/socket exceeds HBM-only capacity %.0f GB",
				perSocketFootprint, hbmCap)
		}
		hbmFrac = 1
		timePerGB = 1 / hbmBW
	case Flat:
		hbmFrac = minF(1, hbmCap/perSocketFootprint)
		// DDR spill; beyond the socket's DDR, spill to the remote socket
		// over UPI (handled below via remote fraction when sockets == 1).
		timePerGB = hbmFrac/hbmBW + (1-hbmFrac)/ddrBW
	case Cache:
		hbmFrac = minF(1, hbmCap/perSocketFootprint) * cacheModeHitBWFrac
		timePerGB = hbmFrac/(hbmBW*cacheModeHitBWFrac) +
			(1-hbmFrac)/(ddrBW*cacheModeMissBWFrac)
	}
	socketBW := 1 / timePerGB

	// Sub-NUMA clustering: NUMA-unaware allocation sends most accesses to
	// remote sub-clusters at reduced bandwidth.
	var remoteFrac float64
	if c.Cluster == SNC4 {
		remoteFrac = sncRemoteFraction
		socketBW = 1 / ((1-remoteFrac)/socketBW + remoteFrac/(socketBW*sncRemoteBWFrac))
	}

	// Active-core scaling: a few cores cannot saturate the socket.
	coresOnSocket := c.Cores
	if coresOnSocket > c.CPU.CoresPerSocket {
		coresOnSocket = c.CPU.CoresPerSocket
	}
	socketBW *= coreBWScale(coresOnSocket, c.CPU.CoresPerSocket)

	// Cross-socket: with interleaved data, half the accesses of each
	// socket are remote and bottleneck on UPI.
	var upiFrac float64
	total := socketBW * float64(sockets)
	if sockets > 1 {
		upiFrac = crossSocketRemoteFraction
		perSocket := 1 / ((1-upiFrac)/socketBW + upiFrac/c.CPU.UPIGBs)
		total = perSocket * float64(sockets)
		remoteFrac = maxF(remoteFrac, upiFrac)
	} else if c.Mem != HBMOnly && footprintGB > c.CPU.TotalMemoryGB() {
		// Capacity spill to the other socket's DDR over UPI (§VI).
		spill := (footprintGB - c.CPU.TotalMemoryGB()) / footprintGB
		total = 1 / ((1-spill)/total + spill/c.CPU.UPIGBs)
		upiFrac = spill
		remoteFrac = maxF(remoteFrac, spill)
	}

	return Bandwidth{
		EffectiveGBs:   total * c.CPU.MemEff,
		HBMFraction:    hbmFrac,
		RemoteFraction: remoteFrac,
		UPIFraction:    upiFrac,
	}, nil
}

// ComputeScale returns the multiplier on a per-socket compute path's peak
// throughput for the active core count: linear in cores, discounted by
// Amdahl synchronization (much heavier across sockets).
func (c Config) ComputeScale() float64 {
	sockets := c.SocketsUsed()
	sf := serialFraction
	if sockets > 1 {
		sf = crossSocketSerialFraction
	}
	eff := func(n float64) float64 { return 1 / (1 + sf*(n-1)) }
	full := float64(c.CPU.CoresPerSocket)
	n := float64(c.Cores)
	return (n * eff(n)) / (full * eff(full))
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

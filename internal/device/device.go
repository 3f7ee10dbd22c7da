// Package device describes the two GPU platforms the paper evaluates on —
// NVIDIA GTX680 (Kepler) and Tesla C2075 (Fermi) — with the architectural
// limits the occupancy calculator needs and the timing/energy parameters
// the simulator needs.
package device

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// CacheConfig selects the shared-memory / L1 split of the combined 64 KB
// on-chip array (paper Table 3: small cache = 16 KB L1 + 48 KB shared,
// large cache = 48 KB L1 + 16 KB shared).
type CacheConfig uint8

// Cache configurations.
const (
	SmallCache CacheConfig = iota + 1 // 16 KB L1, 48 KB shared
	LargeCache                        // 48 KB L1, 16 KB shared
)

// String returns the paper's abbreviation.
func (c CacheConfig) String() string {
	if c == LargeCache {
		return "LC"
	}
	return "SC"
}

// ParseCacheConfig resolves a cache configuration as the CLI's -cache flag
// and the daemon's ?cache= parameter spell it, case-insensitively.
func ParseCacheConfig(name string) (CacheConfig, error) {
	switch strings.ToLower(name) {
	case "sc", "small":
		return SmallCache, nil
	case "lc", "large":
		return LargeCache, nil
	}
	return 0, fmt.Errorf("unknown cache config %q (sc or lc)", name)
}

// Device is one GPU platform.
type Device struct {
	Name string

	// Architectural limits (per SM unless noted).
	SMs              int
	RegsPerSM        int
	MaxRegsPerThread int
	MaxWarpsPerSM    int
	MaxThreadsPerSM  int
	MaxBlocksPerSM   int
	WarpSize         int
	// RegGranularity is the register-file allocation unit in registers
	// per warp (register banking forces rounding, paper Section 2).
	RegGranularity int
	// SharedL1Bytes is the combined shared-memory + L1 array size.
	SharedL1Bytes int
	// SmemGranularity is the shared-memory allocation unit in bytes.
	SmemGranularity int

	// L1GlobalCaching: Fermi (C2075) caches global loads in L1; Kepler
	// (GTX680) reserves L1 for local memory only (paper Section 4.2).
	L1GlobalCaching bool

	// Timing model (cycles).
	IssueWidth  int // instructions issued per SM per cycle
	ALULatency  int
	FPULatency  int
	SharedLat   int
	L1Latency   int
	L2Latency   int
	DRAMLatency int
	// MSHRs bounds outstanding misses per SM.
	MSHRs int
	// DRAMServiceCycles is the channel occupancy per 128-byte line; queueing
	// behind it models bandwidth saturation.
	DRAMServiceCycles float64
	// SharedServiceCycles is the shared-memory port occupancy per warp
	// access (the banked array serves about one warp-wide access per
	// cycle); queueing behind it models shared-memory bandwidth.
	SharedServiceCycles float64
	// L2Bytes is the device-wide L2 size.
	L2Bytes   int
	LineBytes int

	// Energy model (arbitrary units; relative comparisons only).
	// StaticPower burns per SM-cycle; RegFilePower per SM-cycle scales with
	// the fraction of the register file allocated; per-op energies add.
	StaticPower  float64
	RegFilePower float64
	EnergyALU    float64
	EnergyMem    float64
	EnergyShared float64
}

// Fingerprint returns a stable hash over every architectural, timing, and
// energy parameter of the device. Two devices with equal fingerprints
// produce identical realizations and simulations, so the realization cache
// can key on it instead of the (ambiguous) name.
func (d *Device) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", *d)
	return h.Sum64()
}

// GTX680 returns the Kepler platform of the paper: 8 SMs, 65536 registers
// and 64 KB shared+L1 per SM, 64 warps / 2048 threads per SM.
func GTX680() *Device {
	return &Device{
		Name:             "GTX680",
		SMs:              8,
		RegsPerSM:        65536,
		MaxRegsPerThread: 63,
		MaxWarpsPerSM:    64,
		MaxThreadsPerSM:  2048,
		MaxBlocksPerSM:   16,
		WarpSize:         32,
		RegGranularity:   256,
		SharedL1Bytes:    64 << 10,
		SmemGranularity:  256,
		L1GlobalCaching:  false,

		IssueWidth:          2,
		ALULatency:          10,
		FPULatency:          10,
		SharedLat:           28,
		L1Latency:           28,
		L2Latency:           100,
		DRAMLatency:         240,
		MSHRs:               64,
		DRAMServiceCycles:   1.6,
		SharedServiceCycles: 1.0,
		L2Bytes:             512 << 10,
		LineBytes:           128,

		StaticPower:  40,
		RegFilePower: 420,
		EnergyALU:    1.0,
		EnergyMem:    7,
		EnergyShared: 2,
	}
}

// TeslaC2075 returns the Fermi platform of the paper: 14 SMs, 32768
// registers and 64 KB shared+L1 per SM, 48 warps / 1536 threads per SM.
func TeslaC2075() *Device {
	return &Device{
		Name:             "TeslaC2075",
		SMs:              14,
		RegsPerSM:        32768,
		MaxRegsPerThread: 63,
		MaxWarpsPerSM:    48,
		MaxThreadsPerSM:  1536,
		MaxBlocksPerSM:   8,
		WarpSize:         32,
		RegGranularity:   64,
		SharedL1Bytes:    64 << 10,
		SmemGranularity:  128,
		L1GlobalCaching:  true,

		IssueWidth:          1,
		ALULatency:          16,
		FPULatency:          16,
		SharedLat:           32,
		L1Latency:           32,
		L2Latency:           120,
		DRAMLatency:         280,
		MSHRs:               48,
		DRAMServiceCycles:   2.4,
		SharedServiceCycles: 1.0,
		L2Bytes:             768 << 10,
		LineBytes:           128,

		StaticPower:  45,
		RegFilePower: 350,
		EnergyALU:    1.2,
		EnergyMem:    8,
		EnergyShared: 2.5,
	}
}

// GTX580 returns a Fermi GF110 configuration (16 SMs), demonstrating the
// paper's claim that supporting an additional architecture only needs a
// new device description — the middle end and tuning algorithms are
// unchanged.
func GTX580() *Device {
	d := TeslaC2075()
	d.Name = "GTX580"
	d.SMs = 16
	d.DRAMServiceCycles = 1.8 // 192 GB/s vs the C2075's 144
	return d
}

// TeslaK20 returns a Kepler GK110 configuration: 13 SMs and, notably, a
// 255-register per-thread ceiling — occupancy realization gets a much
// wider register budget range than on the evaluation platforms.
func TeslaK20() *Device {
	d := GTX680()
	d.Name = "TeslaK20"
	d.SMs = 13
	d.MaxRegsPerThread = 255
	d.DRAMServiceCycles = 1.5 // 208 GB/s
	return d
}

// ByName resolves one of the two evaluation platforms as the CLI's -device
// flag and the daemon's ?device= parameter spell it: case-insensitive, the
// architecture names as aliases.
func ByName(name string) (*Device, error) {
	switch strings.ToLower(name) {
	case "gtx680", "kepler":
		return GTX680(), nil
	case "c2075", "teslac2075", "fermi":
		return TeslaC2075(), nil
	}
	return nil, fmt.Errorf("unknown device %q (gtx680 or c2075)", name)
}

// Both returns the two evaluation platforms in paper order.
func Both() []*Device { return []*Device{TeslaC2075(), GTX680()} }

// All returns every described platform (the paper's two plus the
// extensibility demonstrations).
func All() []*Device {
	return []*Device{TeslaC2075(), GTX680(), GTX580(), TeslaK20()}
}

// L1Bytes returns the L1 size under the given cache configuration.
func (d *Device) L1Bytes(cfg CacheConfig) int {
	if cfg == LargeCache {
		return 48 << 10
	}
	return 16 << 10
}

// SharedBytes returns the shared-memory size under the given cache
// configuration.
func (d *Device) SharedBytes(cfg CacheConfig) int {
	return d.SharedL1Bytes - d.L1Bytes(cfg)
}

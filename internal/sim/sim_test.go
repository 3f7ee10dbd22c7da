package sim

import (
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
)

func TestCacheBasics(t *testing.T) {
	c := newCache(1024, 128, 2) // 8 lines, 2-way, 4 sets
	if c.access(0, 1) {
		t.Error("cold access hit")
	}
	if !c.access(0, 2) {
		t.Error("warm access missed")
	}
	// Fill set 0 (lines 0, 4 with 4 sets): 0, 4, 8 -> 0 or 4 evicted (LRU: 0
	// was touched at t=2, 4 at t=3, so 0 is newer... 4 inserted later).
	c.access(4, 3)
	c.access(8, 4) // evicts line 0 (LRU stamp 2 < 3)
	if c.access(0, 5) {
		t.Error("evicted line still present")
	}
	// Re-inserting 0 evicted 4 (stamp 3 < 4); 8 must survive.
	if !c.access(8, 6) {
		t.Error("line 8 evicted unexpectedly")
	}
	if c.access(4, 7) {
		t.Error("line 4 should have been evicted")
	}
	if c.hits != 2 || c.misses != 5 {
		t.Errorf("hits/misses = %d/%d, want 2/5", c.hits, c.misses)
	}
	c.reset()
	if c.hits != 0 || c.access(4, 1) {
		t.Error("reset incomplete")
	}
}

const memKernel = `
.kernel memk
.blockdim 64
.func main
  RDSP v0, WARPID
  MOVI v1, 12
  SHL v2, v0, v1      ; 4KB region per warp
  MOVI v3, 0          ; i
  MOVI v4, 0          ; acc
loop:
  MOVI v5, 7
  SHL v6, v3, v5      ; i * 128
  IADD v7, v2, v6
  LDG v8, [v7]
  IADD v4, v4, v8
  IADD v9, v4, v8
  XOR v4, v9, v3
  MOVI v10, 1
  IADD v3, v3, v10
  MOVI v11, 24
  ISET.LT v12, v3, v11
  CBR v12, loop
  STG [v2], v4
  EXIT
`

func simulate(t *testing.T, d *device.Device, blocks, warps int, prog string) *Stats {
	t.Helper()
	p := isa.MustParse(prog)
	lc := &interp.Launch{Prog: p, GridWarps: warps}
	st, err := Simulate(Config{
		Device:        d,
		Cache:         device.SmallCache,
		BlocksPerSM:   blocks,
		RegsPerThread: 16,
	}, lc)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return st
}

func TestSimulateMatchesInterp(t *testing.T) {
	p := isa.MustParse(memKernel)
	want, err := interp.Run(&interp.Launch{Prog: p, GridWarps: 32}, 0, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	st := simulate(t, device.GTX680(), 2, 32, memKernel)
	if st.Checksum != want.Checksum {
		t.Errorf("sim checksum %x != interp %x", st.Checksum, want.Checksum)
	}
	if st.Instructions != uint64(want.Steps) {
		t.Errorf("instructions %d != interp steps %d", st.Instructions, want.Steps)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := simulate(t, device.TeslaC2075(), 3, 64, memKernel)
	b := simulate(t, device.TeslaC2075(), 3, 64, memKernel)
	if a.Cycles != b.Cycles || a.Checksum != b.Checksum || a.Energy != b.Energy {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMoreWarpsHideLatency(t *testing.T) {
	// The memory-bound kernel must run faster (fewer cycles) with more
	// resident warps — the fundamental latency-hiding effect.
	d := device.GTX680()
	low := simulate(t, d, 1, 128, memKernel)
	high := simulate(t, d, 4, 128, memKernel)
	if high.Cycles >= low.Cycles {
		t.Errorf("4 blocks/SM (%d cycles) not faster than 1 (%d cycles)",
			high.Cycles, low.Cycles)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	src := `
.kernel bar
.shared 1024
.blockdim 64
.func main
  RDSP v0, WARPINBLK
  RDSP v1, BLOCKID
  MOVI v2, 4
  SHL v3, v0, v2
  MOVI v4, 99
  IADD v5, v4, v0
  STS [v3], v5
  BAR
  LDS v6, [v3]
  MOVI v7, 10
  SHL v8, v1, v7
  IADD v9, v8, v3
  STG [v9], v6
  EXIT
`
	st := simulate(t, device.GTX680(), 2, 8, src)
	p := isa.MustParse(src)
	want, err := interp.Run(&interp.Launch{Prog: p, GridWarps: 8}, 0, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if st.Checksum != want.Checksum {
		t.Errorf("checksum %x != %x", st.Checksum, want.Checksum)
	}
}

func TestL1PolicyDiffersAcrossDevices(t *testing.T) {
	// C2075 caches global loads in L1; GTX680 does not, so its L1 sees no
	// traffic for a kernel without local spills.
	fermi := simulate(t, device.TeslaC2075(), 2, 28, memKernel)
	kepler := simulate(t, device.GTX680(), 2, 16, memKernel)
	if fermi.L1Hits+fermi.L1Misses == 0 {
		t.Error("C2075 L1 saw no global traffic")
	}
	if kepler.L1Hits+kepler.L1Misses != 0 {
		t.Errorf("GTX680 L1 saw %d global accesses, want 0",
			kepler.L1Hits+kepler.L1Misses)
	}
}

func TestEnergyScalesWithRegisters(t *testing.T) {
	d := device.TeslaC2075()
	p := isa.MustParse(memKernel)
	run := func(regs int) *Stats {
		st, err := Simulate(Config{
			Device: d, Cache: device.SmallCache,
			BlocksPerSM: 2, RegsPerThread: regs,
		}, &interp.Launch{Prog: p, GridWarps: 28})
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		return st
	}
	lean := run(12)
	fat := run(48)
	if fat.EnergyRF <= lean.EnergyRF {
		t.Errorf("register-file energy did not grow with allocation: %v vs %v",
			fat.EnergyRF, lean.EnergyRF)
	}
	if lean.Cycles != fat.Cycles {
		t.Errorf("register accounting changed timing: %d vs %d cycles", lean.Cycles, fat.Cycles)
	}
}

func TestSpillTrafficCounted(t *testing.T) {
	src := `
.kernel spilly
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 77
  SPST.L 0, v1
  SPLD.L v2, 0
  IADD v3, v2, v0
  MOVI v4, 8
  SHL v5, v0, v4
  STG [v5], v3
  EXIT
`
	p := isa.MustParse(src)
	p.Entry().SpillLocal = 1
	st, err := Simulate(Config{
		Device: device.GTX680(), Cache: device.SmallCache,
		BlocksPerSM: 1, RegsPerThread: 8,
	}, &interp.Launch{Prog: p, GridWarps: 8})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if st.SpillInstrs != 16 { // 2 per warp
		t.Errorf("spill instrs = %d, want 16", st.SpillInstrs)
	}
	if st.L1Hits+st.L1Misses == 0 {
		t.Error("local spills bypassed the L1")
	}
}

func TestGridLargerThanResidency(t *testing.T) {
	// 64 blocks over 8 SMs at 1 block/SM: blocks must rotate through.
	st := simulate(t, device.GTX680(), 1, 128, memKernel)
	if st.Warps != 128 {
		t.Errorf("warps = %d", st.Warps)
	}
	p := isa.MustParse(memKernel)
	want, err := interp.Run(&interp.Launch{Prog: p, GridWarps: 128}, 0, nil)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if st.Checksum != want.Checksum {
		t.Errorf("checksum %x != %x", st.Checksum, want.Checksum)
	}
}

func TestZeroResidencyRejected(t *testing.T) {
	p := isa.MustParse(memKernel)
	_, err := Simulate(Config{Device: device.GTX680(), Cache: device.SmallCache},
		&interp.Launch{Prog: p, GridWarps: 8})
	if err == nil {
		t.Error("zero residency accepted")
	}
}

// TestOversizeResidencyRejected: a residency the scheduler's slot bitmaps
// cannot index is an error before any SM runs, not a wrapped shift.
func TestOversizeResidencyRejected(t *testing.T) {
	p := isa.MustParse(memKernel) // 2 warps per block
	lc := &interp.Launch{Prog: p, GridWarps: 256}
	cfg := Config{Device: device.GTX680(), Cache: device.SmallCache, BlocksPerSM: maxSlots / 2, RegsPerThread: 16}
	if _, err := Simulate(cfg, lc); err != nil {
		t.Errorf("%d warps per SM rejected: %v", maxSlots, err)
	}
	cfg.BlocksPerSM++
	if _, err := Simulate(cfg, lc); err == nil {
		t.Errorf("%d warps per SM accepted", maxSlots+2)
	}
}

func TestAvgResidentWarpsTracksResidency(t *testing.T) {
	// With many waves of blocks, achieved residency approaches the
	// configured blocks-per-SM x warps-per-block.
	p := isa.MustParse(memKernel) // 2 warps per block
	st, err := Simulate(Config{Device: device.GTX680(), Cache: device.SmallCache,
		BlocksPerSM: 4, RegsPerThread: 16},
		&interp.Launch{Prog: p, GridWarps: 512})
	if err != nil {
		t.Fatal(err)
	}
	want := 8.0 // 4 blocks x 2 warps
	if st.AvgResidentWarps < want*0.7 || st.AvgResidentWarps > want*1.01 {
		t.Errorf("avg resident warps/SM = %.2f, want ~%.1f", st.AvgResidentWarps, want)
	}
	// Lower residency must show correspondingly lower achieved occupancy.
	st2, err := Simulate(Config{Device: device.GTX680(), Cache: device.SmallCache,
		BlocksPerSM: 1, RegsPerThread: 16},
		&interp.Launch{Prog: p, GridWarps: 512})
	if err != nil {
		t.Fatal(err)
	}
	if st2.AvgResidentWarps >= st.AvgResidentWarps {
		t.Errorf("1 block/SM achieved %.2f warps, >= 4 blocks/SM's %.2f",
			st2.AvgResidentWarps, st.AvgResidentWarps)
	}
}

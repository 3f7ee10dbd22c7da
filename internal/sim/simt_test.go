package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
)

// simtKernel loads with a configurable per-lane stride (shift s): s=2
// keeps a warp inside one cache line (coalesced); s=7 spreads the lanes
// over 32 lines (fully uncoalesced).
func simtKernel(shift int) string {
	return `
.kernel simtmem
.blockdim 32
.func main
  RDSP v0, LANEID
  RDSP v1, WARPID
  MOVI v2, 17
  SHL v3, v1, v2      ; per-warp region
  MOVI v4, ` + itoa(shift) + `
  SHL v5, v0, v4
  IADD v6, v3, v5
  MOVI v7, 0
  MOVI v8, 0
loop:
  LDG v9, [v6]
  IADD v8, v8, v9
  MOVI v10, 4096
  IADD v6, v6, v10
  MOVI v11, 1
  IADD v7, v7, v11
  MOVI v12, 16
  ISET.LT v13, v7, v12
  CBR v13, loop
  STG [v3], v8
  EXIT
`
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

func TestUncoalescedAccessCostsMore(t *testing.T) {
	d := device.GTX680()
	run := func(shift int) *Stats {
		p := isa.MustParse(simtKernel(shift))
		st, err := Simulate(Config{Device: d, Cache: device.SmallCache, BlocksPerSM: 1, RegsPerThread: 16},
			&interp.Launch{Prog: p, GridWarps: 8})
		if err != nil {
			t.Fatalf("Simulate(shift %d): %v", shift, err)
		}
		return st
	}
	co := run(2)
	un := run(7)
	if un.DRAMLines <= co.DRAMLines*8 {
		t.Errorf("uncoalesced DRAM lines %d vs coalesced %d: want ~32x", un.DRAMLines, co.DRAMLines)
	}
	if un.Cycles <= co.Cycles {
		t.Errorf("uncoalesced (%d cycles) not slower than coalesced (%d)", un.Cycles, co.Cycles)
	}
}

func TestSIMTSimMatchesFunctionalChecksum(t *testing.T) {
	p := isa.MustParse(simtKernel(2))
	want, err := interp.Run(&interp.Launch{Prog: p, GridWarps: 16}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Simulate(Config{Device: device.TeslaC2075(), Cache: device.SmallCache,
		BlocksPerSM: 2, RegsPerThread: 16},
		&interp.Launch{Prog: p, GridWarps: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st.Checksum != want.Checksum {
		t.Errorf("sim checksum %x != functional %x", st.Checksum, want.Checksum)
	}
}

func TestDivergenceSerializesIssue(t *testing.T) {
	// A kernel where half the lanes run a long extra path executes more
	// issue slots than its uniform twin doing the same per-lane work.
	divergent := `
.kernel dv
.blockdim 32
.func main
  RDSP v0, LANEID
  RDSP v1, WARPID
  MOVI v2, 1
  AND v3, v0, v2
  MOVI v4, 0
  MOVI v8, 0
  ISET.NE v5, v3, v4
  CBR v5, extra
  BRA join
extra:
  MOVI v6, 0
  MOVI v7, 40
spin:
  IADD v8, v8, v2
  IADD v6, v6, v2
  ISET.LT v9, v6, v7
  CBR v9, spin
join:
  MOVI v10, 12
  SHL v11, v1, v10
  STG [v11], v8
  EXIT
`
	p := isa.MustParse(divergent)
	st, err := Simulate(Config{Device: device.GTX680(), Cache: device.SmallCache,
		BlocksPerSM: 1, RegsPerThread: 16},
		&interp.Launch{Prog: p, GridWarps: 8})
	if err != nil {
		t.Fatal(err)
	}
	// The spin loop (odd lanes only) must appear in the instruction count:
	// ~4 instrs x 40 iterations per warp even though only half the lanes
	// use its results.
	perWarp := st.Instructions / 8
	if perWarp < 150 {
		t.Errorf("instructions/warp = %d: divergent path not serialized", perWarp)
	}
}

func TestSimKernelSplitMatchesFull(t *testing.T) {
	// Two split launches must produce the same combined checksum as one
	// full launch (the runtime's kernel-splitting correctness, in the
	// timing simulator rather than the functional interpreter).
	p := isa.MustParse(memKernel)
	cfg := Config{Device: device.GTX680(), Cache: device.SmallCache,
		BlocksPerSM: 2, RegsPerThread: 16}
	full, err := Simulate(cfg, &interp.Launch{Prog: p, GridWarps: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Simulate(cfg, &interp.Launch{Prog: p, GridWarps: 32})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg, &interp.Launch{Prog: p, GridWarps: 32, FirstWarp: 32})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Checksum ^ b.Checksum; got != full.Checksum {
		t.Errorf("split checksum %x != full %x", got, full.Checksum)
	}
	if a.Cycles >= full.Cycles || b.Cycles >= full.Cycles {
		t.Errorf("split pieces (%d, %d cycles) should each be shorter than the full launch (%d)",
			a.Cycles, b.Cycles, full.Cycles)
	}
}

func TestBankConflictsCostTime(t *testing.T) {
	// A 32-way-conflicting shared access pattern must be slower than the
	// conflict-free one at equal instruction counts.
	mk := func(shift int) string {
		return fmt.Sprintf(`
.kernel bankt
.shared 8192
.blockdim 32
.func main
  RDSP v0, LANEID
  RDSP v1, WARPID
  MOVI v2, %d
  SHL v3, v0, v2
  MOVI v4, 0
  MOVI v5, 0
loop:
  LDS v6, [v3]
  IADD v5, v5, v6
  MOVI v7, 1
  IADD v4, v4, v7
  MOVI v8, 64
  ISET.LT v9, v4, v8
  CBR v9, loop
  MOVI v10, 10
  SHL v11, v1, v10
  STG [v11], v5
  EXIT
`, shift)
	}
	run := func(shift int) *Stats {
		p := isa.MustParse(mk(shift))
		st, err := Simulate(Config{Device: device.GTX680(), Cache: device.SmallCache,
			BlocksPerSM: 2, RegsPerThread: 16},
			&interp.Launch{Prog: p, GridWarps: 32})
		if err != nil {
			t.Fatalf("Simulate: %v", err)
		}
		return st
	}
	free := run(2)     // lane*4: conflict-free
	conflict := run(7) // lane*128: 32-way conflicts
	if free.Instructions != conflict.Instructions {
		t.Fatalf("instruction counts differ: %d vs %d", free.Instructions, conflict.Instructions)
	}
	if conflict.Cycles <= free.Cycles {
		t.Errorf("32-way bank conflicts (%d cycles) not slower than conflict-free (%d)",
			conflict.Cycles, free.Cycles)
	}
}

// TestDivergedBarrierFaultsUnderBothBackends: a lane-variant launch runs the
// reference lane-accurate executor whatever Config.Backend says, so a BAR
// reached by a diverged warp fails the launch with the executor's own
// sentinel under either value.
func TestDivergedBarrierFaultsUnderBothBackends(t *testing.T) {
	p := isa.MustParse(`
.kernel badbar
.blockdim 32
.func main
  RDSP v0, LANEID
  MOVI v1, 16
  ISET.LT v2, v0, v1
  CBR v2, low
  BAR
  BRA out
low:
  BAR
out:
  MOVI v3, 4
  SHL v4, v0, v3
  STG [v4], v0
  EXIT
`)
	for _, b := range []Backend{BackendCompiled, BackendInterp} {
		_, err := Simulate(Config{Device: device.GTX680(), Cache: device.SmallCache,
			BlocksPerSM: 2, RegsPerThread: 16, Backend: b},
			&interp.Launch{Prog: p, GridWarps: 2})
		if !errors.Is(err, interp.ErrDivergedBarrier) || err.Error() != "interp: BAR executed by a diverged warp" {
			t.Errorf("backend %v: error = %v, want interp.ErrDivergedBarrier's text", b, err)
		}
	}
}

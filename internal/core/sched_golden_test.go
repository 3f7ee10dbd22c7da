package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/occupancy"
	"repro/internal/sim"
)

var updateSchedGolden = flag.Bool("update-sched-golden", false,
	"rewrite testdata/sched_golden.txt from this build's simulator")

const schedGoldenFile = "testdata/sched_golden.txt"

// schedCase is one simulated launch whose Stats digest is pinned.
type schedCase struct {
	name string
	cfg  sim.Config
	lc   *interp.Launch
}

// laneKernel is a LANEID kernel (lane-accurate executor, Event.Lane):
// shift 2 keeps a warp's lanes in one line, shift 7 spreads them over 32,
// which on a full SM queues the DRAM channel for thousands of cycles.
func laneKernel(shift int) string {
	return fmt.Sprintf(`
.kernel lanes
.blockdim 64
.func main
  RDSP v0, LANEID
  RDSP v1, WARPID
  MOVI v2, 17
  SHL v3, v1, v2
  MOVI v4, %d
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
  MOVI v12, 12
  ISET.LT v13, v7, v12
  CBR v13, loop
  STG [v3], v8
  EXIT
`, shift)
}

// barrierKernel has blocks of blockDim/32 warps that meet at two barriers
// around unequal work, then exit: short blocks retire constantly, often
// on the first of GTX680's two issue slots.
func barrierKernel(blockDim int) string {
	return fmt.Sprintf(`
.kernel bars
.shared 512
.blockdim %d
.func main
  RDSP v0, WARPINBLK
  RDSP v1, WARPID
  MOVI v2, 7
  SHL v3, v0, v2
  MOVI v4, 3
  AND v5, v1, v4
  MOVI v6, 0
  MOVI v7, 1
spin:
  IMAD v6, v6, v7, v1
  IADD v5, v5, v7
  MOVI v8, 6
  ISET.LT v9, v5, v8
  CBR v9, spin
  STS [v3], v6
  BAR
  LDS v10, [v3]
  MOVI v11, 10
  SHL v12, v1, v11
  LDG v13, [v12]
  XOR v10, v10, v13
  BAR
  STG [v12], v10
  EXIT
`, blockDim)
}

// streamKernel issues eight independent line-strided loads per iteration:
// bandwidth-bound, MSHR-limited, and with a full SM its DRAM queue pushes
// load completions more than a thousand cycles out.
const streamKernel = `
.kernel stream
.blockdim 256
.func main
  RDSP v0, WARPID
  MOVI v1, 14
  SHL v2, v0, v1
  MOVI v3, 0
  MOVI v4, 0
loop:
  LDG v10, [v2+0]
  LDG v11, [v2+128]
  LDG v12, [v2+256]
  LDG v13, [v2+384]
  LDG v14, [v2+512]
  LDG v15, [v2+640]
  LDG v16, [v2+768]
  LDG v17, [v2+896]
  XOR v4, v4, v10
  XOR v4, v4, v11
  XOR v4, v4, v12
  XOR v4, v4, v13
  XOR v4, v4, v14
  XOR v4, v4, v15
  XOR v4, v4, v16
  XOR v4, v4, v17
  MOVI v5, 1024
  IADD v2, v2, v5
  MOVI v6, 1
  IADD v3, v3, v6
  MOVI v7, 8
  ISET.LT v8, v3, v7
  CBR v8, loop
  STG [v2], v4
  EXIT
`

// The three lane-variant kernels below were the compiled SIMT executor's
// lockstep tests; their digests were generated while that executor still
// ran them, so they hold the reference executor to its event stream.

// divergeKernel sends the odd lanes through a 40-trip spin while the even
// lanes wait at the join (MinPC reconvergence), then stores one word per
// lane.
const divergeKernel = `
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
  IADD v12, v11, v0
  MOVI v13, 2
  SHL v14, v12, v13
  STG [v14], v8
  EXIT
`

// bankKernel strides its shared accesses by 128 bytes per lane: every
// STS and LDS is a 32-way bank conflict.
const bankKernel = `
.kernel bankt
.shared 8192
.blockdim 32
.func main
  RDSP v0, LANEID
  RDSP v1, WARPID
  MOVI v2, 7
  SHL v3, v0, v2
  STS [v3], v0
  MOVI v4, 0
  MOVI v5, 0
loop:
  LDS v6, [v3]
  IADD v5, v5, v6
  MOVI v7, 1
  IADD v4, v4, v7
  MOVI v8, 16
  ISET.LT v9, v4, v8
  CBR v9, loop
  MOVI v10, 10
  SHL v11, v1, v10
  IADD v12, v11, v3
  STG [v12], v5
  EXIT
`

// divergedBarKernel reaches a BAR with its lanes split: the launch faults,
// and the golden line is the error text instead of a digest.
const divergedBarKernel = `
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
`

// realizedCases appends one case for every feasible occupancy level of p
// on (d, cc), launched the way Version.profileAt does. Names end in /gto,
// the one scheduling policy, as they did when the file also held LRR rows.
func realizedCases(cs []schedCase, tag string, p *isa.Program, d *device.Device, cc device.CacheConfig, grid int) []schedCase {
	lad := NewRealizer(d, cc).NewLadder(p)
	wpb := p.BlockDim / d.WarpSize
	for _, lvl := range occupancy.Levels(d, p.BlockDim) {
		v, err := lad.Realize(lvl)
		if err != nil {
			continue // infeasible levels are not ladder rungs
		}
		blocks := v.Natural.ActiveBlocks
		if tb := lvl / wpb; tb < blocks {
			blocks = tb
		}
		if blocks <= 0 {
			continue
		}
		cs = append(cs, schedCase{
			name: fmt.Sprintf("%s/%s/cc%d/w%d/gto", tag, d.Name, cc, lvl),
			cfg: sim.Config{Device: d, Cache: cc, BlocksPerSM: blocks,
				RegsPerThread: v.RegsPerThread, SharedPerBlock: v.SharedPerBlock},
			lc: &interp.Launch{Prog: v.Prog, GridWarps: grid},
		})
	}
	return cs
}

func schedCases(t *testing.T) []schedCase {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	devs := []*device.Device{device.GTX680(), device.TeslaC2075()}
	var cs []schedCase
	for _, d := range devs {
		for _, cc := range []device.CacheConfig{device.SmallCache, device.LargeCache} {
			for _, k := range ks {
				cs = realizedCases(cs, k.Name, k.Prog, d, cc, k.GridWarps/16)
			}
		}
	}
	// Programs from the random generator, realized like the suite.
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 6; i++ {
		p := randomProgram(r)
		d := devs[i%2]
		cs = realizedCases(cs, fmt.Sprintf("rnd%d", i), p, d, device.SmallCache, 5*d.SMs*p.BlockDim/d.WarpSize+1)
	}
	// Hand-written kernels aimed at the scheduler's corner cases, run at
	// fixed residencies on both devices.
	raw := []struct {
		tag    string
		src    string
		blocks []int
		grid   int
	}{
		{"lane2", laneKernel(2), []int{1, 8}, 300},
		{"lane7", laneKernel(7), []int{2, 16}, 300},
		{"bar1", barrierKernel(32), []int{1, 3, 16}, 333},
		{"bar2", barrierKernel(64), []int{1, 5, 16}, 333},
		{"stream", streamKernel, []int{1, 4, 6}, 700},
		{"dv", divergeKernel, []int{1, 8}, 200},
		{"bankt", bankKernel, []int{2, 6}, 150},
		{"badbar", divergedBarKernel, []int{1, 4}, 40},
	}
	for _, rk := range raw {
		p := isa.MustParse(rk.src)
		for _, d := range devs {
			for _, b := range rk.blocks {
				if b*p.BlockDim/d.WarpSize > d.MaxWarpsPerSM {
					continue
				}
				cs = append(cs, schedCase{
					name: fmt.Sprintf("%s/%s/b%d/gto", rk.tag, d.Name, b),
					cfg: sim.Config{Device: d, Cache: device.SmallCache, BlocksPerSM: b,
						RegsPerThread: 20},
					lc: &interp.Launch{Prog: p, GridWarps: rk.grid},
				})
			}
		}
	}
	return cs
}

// TestSchedulerStatsGolden pins the warp scheduler's observable behaviour:
// the FNV-64 digest of every field of sim.Stats, per launch, against a
// checked-in file. The digests are a property of the timing model, not of
// the scheduler's data structures — a change to how the issue loop finds
// the next warp must reproduce every one of them bit for bit.
// Regenerate (only when the timing model itself changes) with
//
//	go test ./internal/core -run TestSchedulerStatsGolden -update-sched-golden
func TestSchedulerStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~490 launches")
	}
	cases := schedCases(t)
	got := make([]string, len(cases))
	for i, c := range cases {
		st, err := sim.Simulate(c.cfg, c.lc)
		if err != nil {
			got[i] = fmt.Sprintf("%s error: %v", c.name, err)
			continue
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", *st)
		got[i] = fmt.Sprintf("%s %016x", c.name, h.Sum64())
	}
	if *updateSchedGolden {
		if err := os.WriteFile(schedGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), schedGoldenFile)
		return
	}
	data, err := os.ReadFile(schedGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s holds %d digests, the case list has %d", schedGoldenFile, len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("got %s, golden %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more", bad-10)
	}
}

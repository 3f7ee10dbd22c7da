// Backend-equivalence tests live in an external test package: they drive
// the simulator through core's realization ladder and the verify oracle,
// both of which import sim.
package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fuzzcorpus"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/occupancy"
	"repro/internal/sim"
	"repro/internal/verify"
)

// crossDevices are the two paper GPUs; they differ in SM count, issue
// width, L2 size, and DRAM service rate, so the strided block assignment
// and the per-SM memory system get exercised under both shapes.
func crossDevices() []*device.Device {
	return []*device.Device{device.GTX680(), device.TeslaC2075()}
}

// launchFor builds a small launch covering full blocks plus a tail warp,
// so the cross-SM block striding and the partial last block are both in
// play without full-grid runtimes.
func launchFor(p *isa.Program, d *device.Device) *interp.Launch {
	wpb := p.BlockDim / d.WarpSize
	if wpb < 1 {
		wpb = 1
	}
	return &interp.Launch{Prog: p, GridWarps: 3*wpb + 1}
}

// TestCrossBackendCorpus realizes every benchmark kernel at every
// achievable occupancy level on both devices and requires the compiled
// and interpreted backends to produce bit-identical Stats for each
// resulting binary.
func TestCrossBackendCorpus(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		ks = ks[:3]
	}
	for _, d := range crossDevices() {
		r := core.NewRealizer(d, device.SmallCache)
		for _, k := range ks {
			lad := r.NewLadder(k.Prog)
			wpb := k.Prog.BlockDim / d.WarpSize
			for _, lvl := range occupancy.Levels(d, k.Prog.BlockDim) {
				v, err := lad.Realize(lvl)
				if err != nil {
					continue // infeasible or rejected levels are not ladder rungs
				}
				blocks := v.Natural.ActiveBlocks
				if tb := lvl / wpb; tb < blocks {
					blocks = tb
				}
				if blocks <= 0 {
					continue
				}
				cfg := sim.Config{
					Device:         d,
					Cache:          device.SmallCache,
					BlocksPerSM:    blocks,
					RegsPerThread:  v.RegsPerThread,
					SharedPerBlock: v.SharedPerBlock,
				}
				if vs := verify.CrossBackend(cfg, launchFor(v.Prog, d)); vs != nil {
					t.Errorf("%s/%s level %d: %s", d.Name, k.Name, lvl, vs[0].Detail)
				}
			}
		}
	}
}

// TestCrossBackendDefects runs the seeded defect corpus through both
// backends. The defects deadlock, race, and read uninitialized state;
// whatever the simulator does with them — finish, or fault — the two
// backends must do it identically, error text included.
func TestCrossBackendDefects(t *testing.T) {
	defects, err := kernels.Defects()
	if err != nil {
		t.Fatal(err)
	}
	if len(defects) == 0 {
		t.Fatal("defect corpus is empty")
	}
	d := device.GTX680()
	for _, df := range defects {
		cfg := sim.Config{Device: d, Cache: device.SmallCache, BlocksPerSM: 2, RegsPerThread: 16}
		if vs := verify.CrossBackend(cfg, launchFor(df.Prog, d)); vs != nil {
			t.Errorf("defect %s: %s", df.Name, vs[0].Detail)
		}
	}
}

// TestCrossBackendFuzzCorpora replays the checked-in decode and realize
// fuzz corpora through both backends: adversarial programs the fuzzers
// already found are exactly where a compiled-execution shortcut would
// first diverge from the interpreter.
func TestCrossBackendFuzzCorpora(t *testing.T) {
	defer sim.SetInstrBudgetForTest(200_000)()
	d := device.GTX680()
	seen := 0
	for _, dir := range []string{
		"../isa/testdata/fuzz/FuzzDecode",
		"../core/testdata/fuzz/FuzzRealize",
	} {
		inputs, err := fuzzcorpus.Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range inputs {
			p, err := isa.Decode(e.Data)
			if err != nil || isa.Validate(p) != nil {
				continue
			}
			seen++
			cfg := sim.Config{Device: d, Cache: device.SmallCache, BlocksPerSM: 1, RegsPerThread: 16}
			lc := &interp.Launch{Prog: p, GridWarps: p.BlockDim / d.WarpSize}
			if lc.GridWarps < 1 {
				lc.GridWarps = 1
			}
			if vs := verify.CrossBackend(cfg, lc); vs != nil {
				t.Errorf("corpus input %s: %s", e.Name, vs[0].Detail)
			}
		}
	}
	if seen == 0 {
		t.Log("no corpus input decoded to a runnable program (corpus may be all-structural)")
	}
}

// TestSimBackendDeterminism pins the parallel-SM merge: the same launch,
// run repeatedly on each backend, must return identical Stats every time.
// Goroutine scheduling must be entirely invisible in the merged result.
// The scheduler's own work counters (issue attempts, rejects, idle
// skips) must repeat exactly too, and agree across the two backends:
// they count what the timing model did, not how the warps executed.
func TestSimBackendDeterminism(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	k := ks[0]
	schedWork := func(col *obs.Collector) [3]uint64 {
		m := col.Metrics()
		return [3]uint64{m.Counter("sim.issue_attempts").Value(),
			m.Counter("sim.issue_rejects").Value(), m.Counter("sim.idle_skips").Value()}
	}
	for _, d := range crossDevices() {
		var firstWork [3]uint64
		for _, backend := range []sim.Backend{sim.BackendCompiled, sim.BackendInterp} {
			cfg := sim.Config{
				Device:        d,
				Cache:         device.SmallCache,
				BlocksPerSM:   2,
				RegsPerThread: 32,
				Backend:       backend,
			}
			lc := launchFor(k.Prog, d)
			var first *sim.Stats
			for run := 0; run < 3; run++ {
				col := obs.New()
				cfg.Obs = col.Ctx()
				st, err := sim.Simulate(cfg, lc)
				if err != nil {
					t.Fatalf("%s/%s run %d: %v", backend, d.Name, run, err)
				}
				work := schedWork(col)
				if work[0] != st.Instructions+work[1] {
					t.Fatalf("%s/%s run %d: %d attempts, %d rejects, %d instructions issued",
						backend, d.Name, run, work[0], work[1], st.Instructions)
				}
				if firstWork == [3]uint64{} {
					firstWork = work
				}
				if work != firstWork {
					t.Fatalf("%s/%s run %d: scheduler work %v, want %v", backend, d.Name, run, work, firstWork)
				}
				if first == nil {
					first = st
					continue
				}
				if *st != *first {
					t.Fatalf("%s/%s run %d: stats diverged from run 0:\n got %+v\nwant %+v",
						backend, d.Name, run, *st, *first)
				}
			}
		}
	}
}

// TestSimRejectsOversizedFrame pins the launch-time register-file guard:
// a frame wider than interp.RegFileSize is NewWarp's error on both
// backends, returned before any SM goroutine starts, so the oracle sees
// the same fault twice.
func TestSimRejectsOversizedFrame(t *testing.T) {
	p := isa.MustParse(`
.kernel big
.blockdim 32
.func main
  MOVI v600, 1
  STG [v600], v600
  EXIT
`)
	if err := isa.Validate(p); err != nil {
		t.Fatal(err)
	}
	lc := &interp.Launch{Prog: p, GridWarps: 1}
	layout, err := interp.NewLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	_, want := interp.NewWarp(lc, layout, 0, nil)
	if want == nil {
		t.Fatalf("test premise broken: a %d-register frame fits the file", layout.RegHighWater)
	}
	cfg := sim.Config{Device: device.GTX680(), Cache: device.SmallCache, BlocksPerSM: 1, RegsPerThread: 16}
	for _, backend := range []sim.Backend{sim.BackendCompiled, sim.BackendInterp} {
		cfg.Backend = backend
		if _, err := sim.Simulate(cfg, lc); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: err = %v, want %q", backend, err, want)
		}
	}
	if vs := verify.CrossBackend(cfg, lc); vs != nil {
		t.Errorf("oracle: %s", vs[0].Detail)
	}
}

// TestSimWarpReuseDeterminism runs a wide-frame kernel, a narrow one, and
// each again, in one process on both backends. Warp contexts and compiled
// warps are pooled across launches and keep their buffers, sized to the
// widest kernel they served: a scoreboard stamp or register value left
// over from an earlier kernel would fabricate a hazard or change a store,
// and show as Stats that differ from that kernel's first run. The wide
// kernel reads v450 before writing it and reuses its high registers
// under long-latency loads, so both leftovers would be visible.
func TestSimWarpReuseDeterminism(t *testing.T) {
	wide := isa.MustParse(`
.kernel wide
.blockdim 64
.func main
  RDSP v0, WARPID
  MOVI v1, 12
  SHL v2, v0, v1
  STG [v2], v450
  MOVI v3, 0
loop:
  MOVI v4, 7
  SHL v5, v3, v4
  IADD v6, v2, v5
  LDG v300, [v6]
  IADD v7, v6, v1
  LDG v420, [v7]
  IADD v450, v300, v420
  STG [v6], v450
  MOVI v8, 1
  IADD v3, v3, v8
  MOVI v9, 16
  ISET.LT v10, v3, v9
  CBR v10, loop
  EXIT
`)
	narrow := isa.MustParse(`
.kernel narrow
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 7
  SHL v2, v0, v1
  LDG v3, [v2]
  IADD v4, v3, v3
  STG [v2], v4
  EXIT
`)
	d := device.GTX680()
	first := map[*isa.Program]sim.Stats{}
	for _, backend := range []sim.Backend{sim.BackendCompiled, sim.BackendInterp} {
		for i, p := range []*isa.Program{wide, narrow, wide, narrow} {
			cfg := sim.Config{Device: d, Cache: device.SmallCache, BlocksPerSM: 4, RegsPerThread: 32, Backend: backend}
			st, err := sim.Simulate(cfg, &interp.Launch{Prog: p, GridWarps: 16 * d.SMs})
			if err != nil {
				t.Fatalf("%s run %d (%s): %v", backend, i, p.Name, err)
			}
			want, ok := first[p]
			if !ok {
				first[p] = *st
				continue
			}
			if *st != want {
				t.Fatalf("%s run %d (%s): stats diverged from the first run:\n got %+v\nwant %+v",
					backend, i, p.Name, *st, want)
			}
		}
	}
}

// TestCompiledBackendAllocsFlat asserts that repeated Simulate calls on
// the compiled backend stay allocation-flat: block closures, warp
// contexts, and register scratch all come from pools, so steady-state
// launches must not scale allocations with grid size.
func TestCompiledBackendAllocsFlat(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	p := ks[0].Prog
	d := device.GTX680()
	cfg := sim.Config{
		Device:        d,
		Cache:         device.SmallCache,
		BlocksPerSM:   2,
		RegsPerThread: 32,
		Backend:       sim.BackendCompiled,
	}
	lc := launchFor(p, d)
	run := func() {
		if _, err := sim.Simulate(cfg, lc); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the program compilation and every pool
	perBlock := testing.AllocsPerRun(5, run)

	// Now quadruple the grid: the same resident set processes 4x the
	// blocks, and pooling must keep the allocation count in the same
	// ballpark instead of scaling with the block count.
	big := &interp.Launch{Prog: p, GridWarps: 4 * lc.GridWarps}
	runBig := func() {
		if _, err := sim.Simulate(cfg, big); err != nil {
			t.Fatal(err)
		}
	}
	runBig()
	perBig := testing.AllocsPerRun(5, runBig)
	// Under -race the simulations still run; only the bound is skipped.
	if !raceEnabled && perBig > 2*perBlock+64 {
		t.Errorf("allocations scale with grid size: %v for 4x grid vs %v base", perBig, perBlock)
	}
}

// FuzzSimCompiled feeds decoded fuzz programs to both backends and
// requires agreement on the outcome: identical Stats on success,
// identical error text on failure.
func FuzzSimCompiled(f *testing.F) {
	if ks, err := kernels.All(); err == nil && len(ks) > 0 {
		f.Add(isa.Encode(ks[0].Prog))
	}
	if defects, err := kernels.Defects(); err == nil {
		for _, df := range defects {
			f.Add(isa.Encode(df.Prog))
		}
	}
	d := device.GTX680()
	f.Fuzz(func(t *testing.T, data []byte) {
		defer sim.SetInstrBudgetForTest(200_000)()
		p, err := isa.Decode(data)
		if err != nil || isa.Validate(p) != nil {
			return
		}
		cfg := sim.Config{Device: d, Cache: device.SmallCache, BlocksPerSM: 1, RegsPerThread: 16}
		gw := p.BlockDim / d.WarpSize
		if gw < 1 {
			gw = 1
		}
		lc := &interp.Launch{Prog: p, GridWarps: gw}
		if vs := verify.CrossBackend(cfg, lc); vs != nil {
			t.Fatalf("backend divergence: %s", vs[0].Detail)
		}
	})
}

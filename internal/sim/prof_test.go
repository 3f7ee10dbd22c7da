// Profiler tests: cross-backend bit-identity of PC profiles, run-to-run
// determinism under parallel SMs, and the zero-perturbation contract (a
// profiled run's Stats match an unprofiled run's exactly).
package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/occupancy"
	"repro/internal/prof"
	"repro/internal/sim"
)

// profConfig builds a Config for the spilliest achievable occupancy
// level of a kernel on a device, mirroring the corpus tests.
func profConfigs(t *testing.T, d *device.Device, k *kernels.Kernel) []sim.Config {
	t.Helper()
	r := core.NewRealizer(d, device.SmallCache)
	lad := r.NewLadder(k.Prog)
	wpb := k.Prog.BlockDim / d.WarpSize
	var cfgs []sim.Config
	for _, lvl := range occupancy.Levels(d, k.Prog.BlockDim) {
		v, err := lad.Realize(lvl)
		if err != nil {
			continue
		}
		blocks := v.Natural.ActiveBlocks
		if tb := lvl / wpb; tb < blocks {
			blocks = tb
		}
		if blocks <= 0 {
			continue
		}
		cfgs = append(cfgs, sim.Config{
			Device:         d,
			Cache:          device.SmallCache,
			BlocksPerSM:    blocks,
			RegsPerThread:  v.RegsPerThread,
			SharedPerBlock: v.SharedPerBlock,
		})
	}
	if len(cfgs) == 0 {
		t.Fatalf("%s/%s: no realizable levels", d.Name, k.Name)
	}
	return cfgs
}

// TestPCProfileBackendIdentical is the profiler's differential contract:
// for every suite kernel at every achievable occupancy level on both
// devices, the interpreted and compiled backends must produce
// bit-identical PC profiles and counter tracks.
func TestPCProfileBackendIdentical(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		ks = ks[:3]
	}
	for _, d := range crossDevices() {
		for _, k := range ks {
			for _, cfg := range profConfigs(t, d, k) {
				lc := launchFor(k.Prog, d)
				spec := &prof.Spec{PC: true, Interval: 64}
				var profiles [2]*prof.Profile
				for i, backend := range []sim.Backend{sim.BackendCompiled, sim.BackendInterp} {
					c := cfg
					c.Backend = backend
					c.Prof = spec
					st, err := sim.Simulate(c, lc)
					if err != nil {
						t.Fatalf("%s/%s %v: %v", d.Name, k.Name, backend, err)
					}
					if st.Profile == nil {
						t.Fatalf("%s/%s %v: no profile collected", d.Name, k.Name, backend)
					}
					profiles[i] = st.Profile
				}
				if !profiles[0].Equal(profiles[1]) {
					t.Errorf("%s/%s blocks %d: PC profiles differ between backends",
						d.Name, k.Name, cfg.BlocksPerSM)
				}
			}
		}
	}
}

// TestProfileDeterminism pins the parallel-SM merge for profiles: the
// same profiled launch must produce a bit-identical profile on every
// run, on both backends.
func TestProfileDeterminism(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	k := ks[0]
	for _, backend := range []sim.Backend{sim.BackendCompiled, sim.BackendInterp} {
		for _, d := range crossDevices() {
			cfg := sim.Config{
				Device:        d,
				Cache:         device.SmallCache,
				BlocksPerSM:   2,
				RegsPerThread: 32,
				Backend:       backend,
				Prof:          &prof.Spec{PC: true, Interval: 128},
			}
			lc := launchFor(k.Prog, d)
			var first *prof.Profile
			for run := 0; run < 3; run++ {
				st, err := sim.Simulate(cfg, lc)
				if err != nil {
					t.Fatalf("%s/%s run %d: %v", backend, d.Name, run, err)
				}
				if first == nil {
					first = st.Profile
					continue
				}
				if !st.Profile.Equal(first) {
					t.Fatalf("%s/%s run %d: profile diverged from run 0", backend, d.Name, run)
				}
			}
		}
	}
}

// TestProfilerDoesNotPerturbStats: turning the profiler on must not
// change a single simulated number — same cycles, instructions, stall
// attribution, cache traffic, checksum. This is the regression guard
// behind the disabled-profiler overhead claim: the profiled and
// unprofiled simulations execute the same schedule.
func TestProfilerDoesNotPerturbStats(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		ks = ks[:3]
	}
	d := device.GTX680()
	for _, k := range ks {
		cfg := sim.Config{
			Device:        d,
			Cache:         device.SmallCache,
			BlocksPerSM:   2,
			RegsPerThread: 32,
		}
		lc := launchFor(k.Prog, d)
		plain, err := sim.Simulate(cfg, lc)
		if err != nil {
			t.Fatalf("%s plain: %v", k.Name, err)
		}
		cfg.Prof = &prof.Spec{PC: true, Interval: 64}
		profiled, err := sim.Simulate(cfg, lc)
		if err != nil {
			t.Fatalf("%s profiled: %v", k.Name, err)
		}
		if profiled.Profile == nil {
			t.Fatalf("%s: profiled run has no profile", k.Name)
		}
		// Null the buffer pointers; every scalar must match exactly.
		a, b := *plain, *profiled
		a.Trace, b.Trace = nil, nil
		a.Profile, b.Profile = nil, nil
		if a != b {
			t.Errorf("%s: profiling perturbed Stats:\n plain   %+v\n profiled %+v", k.Name, a, b)
		}
		// The profile's totals reconcile with the Stats: issue counts sum
		// to the instruction count, stall attribution sums to the stall
		// breakdown.
		var issues, mem, alu, bar, mshr uint64
		for pc := range profiled.Profile.Issues {
			issues += profiled.Profile.Issues[pc]
			mem += profiled.Profile.StallMem[pc]
			alu += profiled.Profile.StallALU[pc]
			bar += profiled.Profile.StallBarrier[pc]
			mshr += profiled.Profile.StallMSHR[pc]
		}
		if issues != profiled.Instructions {
			t.Errorf("%s: profile issues %d != instructions %d", k.Name, issues, profiled.Instructions)
		}
		if mem > profiled.StallMem || alu > profiled.StallALU ||
			bar > profiled.StallBarrier || mshr > profiled.StallMSHR {
			t.Errorf("%s: attributed stalls exceed totals: %d/%d %d/%d %d/%d %d/%d",
				k.Name, mem, profiled.StallMem, alu, profiled.StallALU,
				bar, profiled.StallBarrier, mshr, profiled.StallMSHR)
		}
	}
}

// TestProfileTrackShapes checks the merged counter tracks: one sample
// per full interval, device-wide residency bounded by the configured
// residency, and the instruction track summing to (at most) the
// retired-instruction count.
func TestProfileTrackShapes(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	k := ks[0]
	d := device.GTX680()
	const interval = 64
	cfg := sim.Config{
		Device:        d,
		Cache:         device.SmallCache,
		BlocksPerSM:   2,
		RegsPerThread: 32,
		Prof:          &prof.Spec{Interval: interval},
	}
	lc := launchFor(k.Prog, d)
	st, err := sim.Simulate(cfg, lc)
	if err != nil {
		t.Fatal(err)
	}
	p := st.Profile
	if p == nil {
		t.Fatal("no profile")
	}
	if p.Issues != nil {
		t.Error("PC arrays allocated without Spec.PC")
	}
	if p.Interval != interval {
		t.Fatalf("interval = %d", p.Interval)
	}
	want := int(st.Cycles / interval)
	byName := map[string][]float64{}
	for _, tr := range p.Tracks {
		byName[tr.Name] = tr.Points
		if len(tr.Points) != want {
			t.Errorf("track %s has %d points, want %d", tr.Name, len(tr.Points), want)
		}
	}
	for _, name := range []string{"resident_warps", "instructions", "ipc", "mshr_pending"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing track %q", name)
		}
	}
	wpb := k.Prog.BlockDim / d.WarpSize
	maxResident := float64(d.SMs * cfg.BlocksPerSM * wpb)
	var instrs float64
	for i, v := range byName["resident_warps"] {
		if v < 0 || v > maxResident {
			t.Errorf("resident_warps[%d] = %v outside [0, %v]", i, v, maxResident)
		}
	}
	for _, v := range byName["instructions"] {
		instrs += v
	}
	if instrs > float64(st.Instructions) {
		t.Errorf("instruction track sums to %v > retired %d", instrs, st.Instructions)
	}
}

// TestSnapshotTotals: every simulation folds its Stats into the
// process-wide totals exactly once, so deltas across a run reflect it.
func TestSnapshotTotals(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	k := ks[0]
	d := device.GTX680()
	cfg := sim.Config{Device: d, Cache: device.SmallCache, BlocksPerSM: 2, RegsPerThread: 32}
	before := sim.SnapshotTotals()
	st, err := sim.Simulate(cfg, launchFor(k.Prog, d))
	if err != nil {
		t.Fatal(err)
	}
	delta := sim.SnapshotTotals().Delta(before)
	if delta.Launches != 1 {
		t.Fatalf("launches delta = %d, want 1", delta.Launches)
	}
	if delta.Cycles != st.Cycles || delta.Instructions != st.Instructions {
		t.Fatalf("delta %+v does not reflect run %d cycles / %d instrs",
			delta, st.Cycles, st.Instructions)
	}
	if delta.StallMem != st.StallMem || delta.L1Hits != st.L1Hits {
		t.Fatalf("delta stall/cache fields diverge: %+v vs %+v", delta, st)
	}
}

// BenchmarkSimProfilerDisabled measures the simulator hot path with the
// profiler compiled in but disabled — the configuration every normal
// run uses. Compare against BenchmarkSimProfilerEnabled.
func BenchmarkSimProfilerDisabled(b *testing.B) {
	benchmarkProfiler(b, nil)
}

// BenchmarkSimProfilerEnabled measures the same launch with PC profiling
// and counter sampling on.
func BenchmarkSimProfilerEnabled(b *testing.B) {
	benchmarkProfiler(b, &prof.Spec{PC: true, Interval: 256})
}

func benchmarkProfiler(b *testing.B, spec *prof.Spec) {
	ks, err := kernels.All()
	if err != nil {
		b.Fatal(err)
	}
	k := ks[0]
	d := device.GTX680()
	cfg := sim.Config{
		Device:        d,
		Cache:         device.SmallCache,
		BlocksPerSM:   2,
		RegsPerThread: 32,
		Prof:          spec,
	}
	lc := launchFor(k.Prog, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(cfg, lc); err != nil {
			b.Fatal(err)
		}
	}
}

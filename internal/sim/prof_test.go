// Profiler tests: run-to-run determinism under parallel SMs, the
// zero-perturbation contract (a profiled run's Stats match an unprofiled
// run's exactly) and the counter tracks' shape. Cross-backend
// bit-identity of profiles is TestCrossBackendCorpus's.
package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/prof"
	"repro/internal/sim"
)

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
				Profile:       true,
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
// attribution, cache traffic, checksum — on either backend. This is the
// regression guard behind the disabled-profiler overhead claim: the
// profiled and unprofiled simulations execute the same schedule.
func TestProfilerDoesNotPerturbStats(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		ks = ks[:3]
	}
	d := device.GTX680()
	for _, backend := range []sim.Backend{sim.BackendCompiled, sim.BackendInterp} {
		for _, k := range ks {
			cfg := sim.Config{
				Device:        d,
				Cache:         device.SmallCache,
				BlocksPerSM:   2,
				RegsPerThread: 32,
				Backend:       backend,
			}
			lc := launchFor(k.Prog, d)
			plain, err := sim.Simulate(cfg, lc)
			if err != nil {
				t.Fatalf("%s/%v plain: %v", k.Name, backend, err)
			}
			cfg.Profile = true
			profiled, err := sim.Simulate(cfg, lc)
			if err != nil {
				t.Fatalf("%s/%v profiled: %v", k.Name, backend, err)
			}
			if profiled.Profile == nil {
				t.Fatalf("%s/%v: profiled run has no profile", k.Name, backend)
			}
			// Null the buffer pointers; every scalar must match exactly.
			a, b := *plain, *profiled
			a.Profile, b.Profile = nil, nil
			if a != b {
				t.Errorf("%s/%v: profiling perturbed Stats:\n plain   %+v\n profiled %+v", k.Name, backend, a, b)
			}
			// The profile's totals reconcile with the Stats: issue counts
			// sum to the instruction count, stall attribution sums to the
			// stall breakdown.
			var issues, mem, alu, bar, mshr uint64
			for pc := range profiled.Profile.Issues {
				issues += profiled.Profile.Issues[pc]
				mem += profiled.Profile.StallMem[pc]
				alu += profiled.Profile.StallALU[pc]
				bar += profiled.Profile.StallBarrier[pc]
				mshr += profiled.Profile.StallMSHR[pc]
			}
			if issues != profiled.Instructions {
				t.Errorf("%s/%v: profile issues %d != instructions %d", k.Name, backend, issues, profiled.Instructions)
			}
			if mem > profiled.StallMem || alu > profiled.StallALU ||
				bar > profiled.StallBarrier || mshr > profiled.StallMSHR {
				t.Errorf("%s/%v: attributed stalls exceed totals: %d/%d %d/%d %d/%d %d/%d",
					k.Name, backend, mem, profiled.StallMem, alu, profiled.StallALU,
					bar, profiled.StallBarrier, mshr, profiled.StallMSHR)
			}
		}
	}
}

// TestProfileTrackShapes checks the merged counter tracks on a launch
// long enough that its SMs double their sampling interval at least twice
// (at 512 samples of 64 cycles and again of 128): the interval is
// the smallest 64·2^k with 256·interval >= Cycles, there is one sample
// per full interval, device-wide residency is bounded by the configured
// residency, and the instruction track sums to (at most) the
// retired-instruction count.
func TestProfileTrackShapes(t *testing.T) {
	k, err := kernels.ByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	d := device.GTX680()
	cfg := sim.Config{
		Device:        d,
		Cache:         device.SmallCache,
		BlocksPerSM:   2,
		RegsPerThread: 32,
		Profile:       true,
	}
	lc := &interp.Launch{Prog: k.Prog, GridWarps: 1024}
	st, err := sim.Simulate(cfg, lc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles < 512*128 {
		t.Fatalf("%d cycles: too short for two interval doublings", st.Cycles)
	}
	p := st.Profile
	want := uint64(64)
	for want*256 < st.Cycles {
		want *= 2
	}
	if p.Interval != want {
		t.Fatalf("interval = %d, want %d for %d cycles", p.Interval, want, st.Cycles)
	}
	n := int(st.Cycles / p.Interval)
	byName := map[string][]float64{}
	for _, tr := range p.Tracks {
		byName[tr.Name] = tr.Points
		if len(tr.Points) != n {
			t.Errorf("track %s has %d points, want %d", tr.Name, len(tr.Points), n)
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

// TestProfiledLaunchBytes bounds what one profiled launch allocates: the
// profiler's buffers are per-PC arrays, bounded counter tracks and the
// issue logs of 16 warps, so BenchmarkSimProfilerEnabled's launch stays
// under 3 MB.
func TestProfiledLaunchBytes(t *testing.T) {
	cfg, lc := profilerLaunch(t, true)
	run := func() {
		if _, err := sim.Simulate(cfg, lc); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the program compilation and every pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const launches = 5
	for i := 0; i < launches; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perLaunch := (after.TotalAlloc - before.TotalAlloc) / launches
	t.Logf("%d bytes per profiled launch", perLaunch)
	// Under -race the simulations still run; only the bound is skipped.
	if !raceEnabled && perLaunch >= 3<<20 {
		t.Errorf("a profiled launch allocates %d bytes, want under 3 MB", perLaunch)
	}
}

// BenchmarkSimProfilerDisabled measures the simulator hot path with the
// profiler compiled in but disabled — the configuration every normal
// run uses. Compare against BenchmarkSimProfilerEnabled.
func BenchmarkSimProfilerDisabled(b *testing.B) {
	benchmarkProfiler(b, false)
}

// BenchmarkSimProfilerEnabled measures the same launch with the profiler
// on.
func BenchmarkSimProfilerEnabled(b *testing.B) {
	benchmarkProfiler(b, true)
}

// profilerLaunch is the launch the profiler's benchmarks and byte bound
// run: the first suite kernel at two blocks per SM.
func profilerLaunch(tb testing.TB, profile bool) (sim.Config, *interp.Launch) {
	ks, err := kernels.All()
	if err != nil {
		tb.Fatal(err)
	}
	d := device.GTX680()
	cfg := sim.Config{
		Device:        d,
		Cache:         device.SmallCache,
		BlocksPerSM:   2,
		RegsPerThread: 32,
		Profile:       profile,
	}
	return cfg, launchFor(ks[0].Prog, d)
}

func benchmarkProfiler(b *testing.B, profile bool) {
	cfg, lc := profilerLaunch(b, profile)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(cfg, lc); err != nil {
			b.Fatal(err)
		}
	}
}

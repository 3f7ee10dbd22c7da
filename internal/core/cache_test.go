package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/occupancy"
)

// TestBaselineCompileShareRealization is the regression test for the
// redundant-work bug this cache fixes: Baseline and Compile both realize
// the program at levels[0], so calling them back-to-back (the suite's
// Fig11/Fig12/Table3 pattern) must allocate that version exactly once.
func TestBaselineCompileShareRealization(t *testing.T) {
	ResetRealizeCache()
	ResetRunCache()
	k, err := kernels.ByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)

	vBase, _, err := r.Baseline(k.Prog, 256)
	if err != nil {
		t.Fatal(err)
	}
	missesAfterBaseline := SnapshotCacheCounters().Realize.Misses

	cr, err := r.Compile(k.Prog, true)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Original != vBase {
		t.Error("Compile re-allocated the levels[0] version Baseline already realized")
	}
	hits := SnapshotCacheCounters().Realize.Hits
	if hits == 0 {
		t.Errorf("no cache hits across Baseline+Compile (misses after baseline: %d)", missesAfterBaseline)
	}
}

// TestRealizeAtMostOncePerKey asserts the acceptance criterion directly:
// across repeated Sweep/Baseline/Compile over the same inputs, the miss
// counter (== distinct realizations actually run) does not grow.
func TestRealizeAtMostOncePerKey(t *testing.T) {
	ResetRealizeCache()
	ResetRunCache()
	k, err := kernels.ByName("backprop")
	if err != nil {
		t.Fatal(err)
	}
	d := device.TeslaC2075()
	r := NewRealizer(d, device.SmallCache)
	if _, err := r.Sweep(k.Prog, 128); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Baseline(k.Prog, 128); err != nil {
		t.Fatal(err)
	}
	missesFirst := SnapshotCacheCounters().Realize.Misses

	// Second pass over the same inputs, through a fresh Realizer (the
	// suite builds one per experiment row): everything must hit.
	r2 := NewRealizer(device.TeslaC2075(), device.SmallCache)
	if _, err := r2.Sweep(k.Prog, 128); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r2.Baseline(k.Prog, 128); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Compile(k.Prog, true); err != nil {
		t.Fatal(err)
	}
	missesSecond := SnapshotCacheCounters().Realize.Misses
	if missesSecond != missesFirst {
		t.Errorf("repeat run performed %d new realizations, want 0", missesSecond-missesFirst)
	}
}

// TestCacheOffMatchesCacheOn asserts that memoization is purely a
// performance layer: Sweep and Tune produce identical results with both
// caches disabled.
func TestCacheOffMatchesCacheOn(t *testing.T) {
	k, err := kernels.ByName("gaussian")
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]LevelResult, *TuneReport) {
		r := NewRealizer(device.GTX680(), device.SmallCache)
		sweep, err := r.Sweep(k.Prog, 128)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Tune(k.Prog, Launch{GridWarps: 128, Iterations: 6})
		if err != nil {
			t.Fatal(err)
		}
		return sweep, rep
	}

	ResetRealizeCache()
	ResetRunCache()
	sweepOn, repOn := run()

	SetRealizeCacheEnabled(false)
	SetRunCacheEnabled(false)
	defer SetRealizeCacheEnabled(true)
	defer SetRunCacheEnabled(true)
	sweepOff, repOff := run()

	if len(sweepOn) != len(sweepOff) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(sweepOn), len(sweepOff))
	}
	for i := range sweepOn {
		on, off := sweepOn[i], sweepOff[i]
		if on.TargetWarps != off.TargetWarps || on.Stats.Cycles != off.Stats.Cycles ||
			on.Stats.Checksum != off.Stats.Checksum ||
			on.Version.RegsPerThread != off.Version.RegsPerThread {
			t.Errorf("sweep level %d differs: on=%+v off=%+v", i, on.Stats, off.Stats)
		}
	}
	if repOn.Chosen.TargetWarps != repOff.Chosen.TargetWarps ||
		repOn.TotalCycles != repOff.TotalCycles ||
		repOn.Checksum != repOff.Checksum ||
		repOn.TuneIterations != repOff.TuneIterations {
		t.Errorf("tune differs: on={warps %d cycles %d cks %x} off={warps %d cycles %d cks %x}",
			repOn.Chosen.TargetWarps, repOn.TotalCycles, repOn.Checksum,
			repOff.Chosen.TargetWarps, repOff.TotalCycles, repOff.Checksum)
	}
}

// TestRunCacheServesRepeatedLaunches asserts the simulation memo: running
// the same version at the same level and grid twice simulates once.
func TestRunCacheServesRepeatedLaunches(t *testing.T) {
	ResetRealizeCache()
	ResetRunCache()
	k, err := kernels.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	lvl := occupancy.Levels(d, k.Prog.BlockDim)[0]
	v, err := r.Realize(k.Prog, lvl)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := v.RunAt(d, device.SmallCache, lvl, &interp.Launch{Prog: v.Prog, GridWarps: 64})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := v.RunAt(d, device.SmallCache, lvl, &interp.Launch{Prog: v.Prog, GridWarps: 64})
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Error("repeated identical launch was re-simulated (different Stats pointers)")
	}
	hits := SnapshotCacheCounters().Run.Hits
	if hits == 0 {
		t.Error("run cache recorded no hit")
	}
	// A different grid is a different launch.
	st3, err := v.RunAt(d, device.SmallCache, lvl, &interp.Launch{Prog: v.Prog, GridWarps: 128})
	if err != nil {
		t.Fatal(err)
	}
	if st3 == st1 {
		t.Error("launches with different grids shared a cache entry")
	}
}

// TestResetReleasesDerivedState pins the ownership rule: everything
// computed from a realized binary (layout, compiled closures, lint
// findings, fingerprint, verification outcome) lives on the program or its
// version, so dropping the two memo caches leaves nothing in the process
// that keeps a realized program alive.
func TestResetReleasesDerivedState(t *testing.T) {
	ResetRealizeCache()
	ResetRunCache()
	var tracked, finalized atomic.Int32
	func() {
		rng := rand.New(rand.NewSource(15))
		rz := NewRealizer(device.GTX680(), device.SmallCache) // Verify on, Lint strict
		seen := map[*isa.Program]bool{}
		for i := 0; i < 12; i++ {
			p := randomProgram(rng)
			cr, err := rz.Compile(p, true)
			if err != nil {
				t.Fatalf("program %d: compile: %v", i, err)
			}
			for _, c := range append(append([]*Candidate{{Version: cr.Original}}, cr.Candidates...), cr.FailSafe...) {
				if rp := c.Version.Prog; !seen[rp] {
					seen[rp] = true
					tracked.Add(1)
					runtime.SetFinalizer(rp, func(*isa.Program) { finalized.Add(1) })
				}
			}
			if _, err := rz.TuneCompiled(cr, Launch{GridWarps: 32, Iterations: 6}); err != nil {
				t.Fatalf("program %d: tune: %v", i, err)
			}
		}
	}()
	if tracked.Load() == 0 {
		t.Fatal("no realized program was tracked")
	}
	ResetRealizeCache()
	ResetRunCache()
	// Finalizers run on their own goroutine after a collection finds the
	// object unreachable; two collections suffice, the loop only waits for
	// that goroutine.
	for i := 0; i < 200 && finalized.Load() < tracked.Load(); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got, want := finalized.Load(), tracked.Load(); got != want {
		t.Errorf("%d of %d realized programs were released after resetting both caches", got, want)
	}
}

// TestLintCountExactUnderParallelSweep pins once-per-program analysis:
// Sweep's levels realize in parallel and several share one proto binary,
// so a load-then-store memo let two levels both analyze it and sa.checks
// read 7 in some runs and 8 in others. Each sweep gets a fresh clone of
// the kernel so every run is cold; the count does not depend on the grid,
// so the launch is tiny.
func TestLintCountExactUnderParallelSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("20 cold sweeps of every suite kernel")
	}
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		counts := map[uint64]int{}
		for run := 0; run < 20; run++ {
			ResetRealizeCache()
			ResetRunCache()
			col := obs.New()
			rz := NewRealizer(device.GTX680(), device.SmallCache)
			rz.Obs = col
			if _, err := rz.Sweep(k.Prog.Clone(), 16); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			counts[col.Metrics().Counter("sa.checks").Value()]++
		}
		if len(counts) != 1 {
			t.Errorf("%s: sa.checks over 20 identical cold sweeps = %v (value: runs), want one value", k.Name, counts)
		}
	}
}

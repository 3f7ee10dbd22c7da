package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/kernels"
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
	_, missesAfterBaseline := RealizeCacheStats()

	cr, err := r.Compile(k.Prog, true)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Original != vBase {
		t.Error("Compile re-allocated the levels[0] version Baseline already realized")
	}
	hits, _ := RealizeCacheStats()
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
	_, missesFirst := RealizeCacheStats()

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
	_, missesSecond := RealizeCacheStats()
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
	hits, _ := RunCacheStats()
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

package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/occupancy"
)

// TestEveryKernelEveryLevelPreservesSemantics is the end-to-end compiler
// correctness gate: every benchmark, realized at every achievable
// occupancy level on both devices, must compute exactly the result of the
// unallocated program (register allocation, spilling, and the
// compressible stack are all exercised).
func TestEveryKernelEveryLevelPreservesSemantics(t *testing.T) {
	const grid = 16 // warps; semantics don't depend on grid size
	all, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range all {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			want, err := interp.Run(&interp.Launch{Prog: k.Prog, GridWarps: grid}, 0, nil)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			for _, d := range device.Both() {
				r := NewRealizer(d, device.SmallCache)
				levels := occupancy.Levels(d, k.Prog.BlockDim)
				realized := 0
				for _, lvl := range levels {
					v, err := r.Realize(k.Prog, lvl)
					if err != nil {
						continue // level infeasible for this kernel
					}
					realized++
					got, err := interp.Run(&interp.Launch{Prog: v.Prog, GridWarps: grid}, 0, nil)
					if err != nil {
						t.Fatalf("%s lvl %d: run: %v", d.Name, lvl, err)
					}
					if got.Checksum != want.Checksum {
						t.Errorf("%s lvl %d: checksum %x, want %x (regs=%d shared=%d local=%d)",
							d.Name, lvl, got.Checksum, want.Checksum,
							v.RegsPerThread, v.SharedPerBlock, v.LocalSlots)
					}
					if v.RegsPerThread > d.MaxRegsPerThread {
						t.Errorf("%s lvl %d: %d regs exceed hardware max", d.Name, lvl, v.RegsPerThread)
					}
				}
				if realized == 0 {
					t.Errorf("%s: no occupancy level realizable", d.Name)
				}
			}
		})
	}
}

// TestCompileEveryKernel checks the Figure 8 outputs across the benchmark
// suite: directions match the paper's partition, candidate counts respect
// the cap, and the conservative version avoids local-memory spills when
// one exists.
func TestCompileEveryKernel(t *testing.T) {
	upward := map[string]bool{}
	up, err := kernels.Upward()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range up {
		upward[k.Name] = true
	}
	down, err := kernels.Downward()
	if err != nil {
		t.Fatal(err)
	}
	all, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	for _, k := range all {
		cr, err := r.Compile(k.Prog, true)
		if err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		if len(cr.Candidates) > maxCandidates {
			t.Errorf("%s: %d candidates exceed cap", k.Name, len(cr.Candidates))
		}
		if upward[k.Name] && cr.Direction != Increasing {
			t.Errorf("%s: direction %v, want increasing (paper)", k.Name, cr.Direction)
		}
		isDown := false
		for _, dk := range down {
			if dk.Name == k.Name {
				isDown = true
			}
		}
		if isDown && cr.Direction != Decreasing {
			t.Errorf("%s: direction %v, want decreasing (paper)", k.Name, cr.Direction)
		}
	}
}

// TestTuneConvergesQuickly mirrors the paper's claim that dynamic tuning
// needs about three iterations on average.
func TestTuneConvergesQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning runs are slow")
	}
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	total, n := 0, 0
	for _, name := range []string{"srad", "gaussian", "bfs"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Tune(k.Prog, Launch{GridWarps: 256, Iterations: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total += rep.TuneIterations
		n++
	}
	if avg := float64(total) / float64(n); avg > 6 {
		t.Errorf("average tuning iterations = %.1f, want small (paper: ~3)", avg)
	}
}

// TestSweepSingleLocalMinimum checks the paper's first principle on the
// high-pressure kernels: the runtime-vs-occupancy curve has one local
// minimum (allowing small plateau noise within the tuner's tolerance).
func TestSweepSingleLocalMinimum(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow")
	}
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	k, err := kernels.ByName("imageDenoising")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Sweep(k.Prog, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Find the global minimum, then require the curve to be (noisily)
	// non-increasing before it and non-decreasing after it.
	minIdx := 0
	for i, lr := range res {
		if lr.Stats.Cycles < res[minIdx].Stats.Cycles {
			minIdx = i
		}
	}
	const slack = 1.10
	for i := 1; i <= minIdx; i++ {
		if float64(res[i].Stats.Cycles) > float64(res[i-1].Stats.Cycles)*slack {
			t.Errorf("left of minimum not descending: level %d (%d) vs %d (%d)",
				res[i].TargetWarps, res[i].Stats.Cycles, res[i-1].TargetWarps, res[i-1].Stats.Cycles)
		}
	}
	for i := minIdx + 1; i < len(res); i++ {
		if float64(res[i].Stats.Cycles)*slack < float64(res[i-1].Stats.Cycles) {
			t.Errorf("right of minimum not ascending: level %d (%d) vs %d (%d)",
				res[i].TargetWarps, res[i].Stats.Cycles, res[i-1].TargetWarps, res[i-1].Stats.Cycles)
		}
	}
}

// TestVersionRunAtPadsDown verifies the shared-memory-padding mechanism:
// running a binary below its natural occupancy reduces residency without
// recompilation, and the result is unchanged.
func TestVersionRunAtPadsDown(t *testing.T) {
	d := device.TeslaC2075()
	r := NewRealizer(d, device.SmallCache)
	k, err := kernels.ByName("gaussian")
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Realize(k.Prog, occupancy.Levels(d, k.Prog.BlockDim)[0])
	if err != nil {
		t.Fatal(err)
	}
	const grid = 672 // 84 blocks: several full waves on 14 SMs
	full, err := v.RunAt(d, device.SmallCache, v.Natural.ActiveWarps,
		&interp.Launch{Prog: v.Prog, GridWarps: grid})
	if err != nil {
		t.Fatal(err)
	}
	padded, err := v.RunAt(d, device.SmallCache, 8,
		&interp.Launch{Prog: v.Prog, GridWarps: grid})
	if err != nil {
		t.Fatal(err)
	}
	if padded.Checksum != full.Checksum {
		t.Error("padding changed semantics")
	}
	if padded.Cycles <= full.Cycles {
		t.Errorf("8 warps (%d cycles) should be slower than %d warps (%d cycles)",
			padded.Cycles, v.Natural.ActiveWarps, full.Cycles)
	}
}

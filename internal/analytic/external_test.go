package analytic_test

import (
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/occupancy"
)

// TestModelAgreesWithSimulatorOnOrdering: on a spill-free kernel the
// analytical model and the simulator should roughly agree about which
// occupancy is best (the paper's point is that with *spills* the model's
// inputs change under it, so we use srad whose binaries barely spill).
func TestModelAgreesWithSimulatorOnOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	d := device.TeslaC2075()
	k, err := kernels.ByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRealizer(d, device.SmallCache)
	const grid = 2688
	sweep, err := r.Sweep(k.Prog, grid)
	if err != nil {
		t.Fatal(err)
	}
	bestSim, bestPred := 0, 0
	var bestSimCycles uint64
	var bestPredCycles float64
	for i, lr := range sweep {
		pr, err := analytic.PredictProgram(d, lr.Version.Prog, lr.TargetWarps, grid)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || lr.Stats.Cycles < bestSimCycles {
			bestSimCycles, bestSim = lr.Stats.Cycles, i
		}
		if i == 0 || pr.Cycles < bestPredCycles {
			bestPredCycles, bestPred = pr.Cycles, i
		}
	}
	if diff := bestSim - bestPred; diff > 2 || diff < -2 {
		t.Errorf("model's best level index %d vs simulator's %d (disagreement > 2 ticks)",
			bestPred, bestSim)
	}
}

func TestPredictProgramOnBenchmarks(t *testing.T) {
	d := device.GTX680()
	for _, name := range []string{"bfs", "gaussian"} {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range occupancy.Levels(d, k.Prog.BlockDim) {
			pr, err := analytic.PredictProgram(d, k.Prog, lvl, 512)
			if err != nil {
				t.Fatalf("%s lvl %d: %v", name, lvl, err)
			}
			if pr.Cycles <= 0 {
				t.Errorf("%s lvl %d: non-positive prediction", name, lvl)
			}
		}
	}
}

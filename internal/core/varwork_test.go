package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/kernels"
)

// TestTuneWithVaryingWork reproduces the paper's bfs scenario: every
// iteration launches a different frontier size. Work-normalized feedback
// must still converge to a sensible occupancy and the selected kernel
// must compute correct results.
func TestTuneWithVaryingWork(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning runs are slow")
	}
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	k, err := kernels.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	// Frontier growth then collapse, in block-aligned warp counts.
	grids := []int{64, 256, 1024, 512, 896, 128, 768, 320}
	rep, err := r.Tune(k.Prog, Launch{IterationGrids: grids})
	if err != nil {
		t.Fatalf("Tune: %v", err)
	}
	if rep.Chosen == nil {
		t.Fatal("no selection")
	}
	if len(rep.History) != len(grids) {
		t.Errorf("history = %d, want %d", len(rep.History), len(grids))
	}
	// The last iteration ran grid 320: verify against functional execution.
	want, err := interp.Run(&interp.Launch{Prog: k.Prog, GridWarps: 320}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checksum != want.Checksum {
		t.Errorf("checksum %x, want %x", rep.Checksum, want.Checksum)
	}
	// bfs prefers high occupancy (paper Fig. 15b): the selection should
	// not collapse to the bottom of the ladder despite the noisy work.
	if rep.Chosen.TargetWarps < 24 {
		t.Errorf("selected %d warps/SM; varying work misled the tuner", rep.Chosen.TargetWarps)
	}
}

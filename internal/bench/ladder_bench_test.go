package bench_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/occupancy"
)

// BenchmarkSweepCold measures a cold occupancy sweep: every benchmark
// kernel realized at every occupancy level on a fresh cache owner, so each
// iteration pays the full middle-end cost. One ladder per kernel per
// iteration — the configuration behind the incremental-ladder PR's speedup
// claim (3.01× against commit 7829f76, DESIGN.md §10).
func BenchmarkSweepCold(b *testing.B) { sweepCold(b, false) }

// BenchmarkSweepColdOpt is the same cold sweep with the pressure-reducing
// middle end on: each ladder additionally pays for pressure-aware
// scheduling and its legality check, once per function whose
// max-live exceeds some level's budget. The ratio against
// BenchmarkSweepCold is the middle end's compile-time overhead (the
// benchmark's compile_opt_cold over compile_cold is the recorded number).
func BenchmarkSweepColdOpt(b *testing.B) { sweepCold(b, true) }

func sweepCold(b *testing.B, opt bool) {
	ks, err := kernels.All()
	if err != nil {
		b.Fatal(err)
	}
	d := device.GTX680()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range ks {
			r := core.NewCaches().NewRealizer(d, device.SmallCache) // a cold realization
			r.Verify = false
			r.Opt = opt
			lad := r.NewLadder(k.Prog)
			for _, lvl := range occupancy.Levels(d, k.Prog.BlockDim) {
				if _, err := lad.Realize(lvl); err != nil {
					var inf *core.ErrInfeasible
					if !errors.As(err, &inf) {
						b.Fatalf("%s level %d: %v", k.Name, lvl, err)
					}
				}
			}
		}
	}
}

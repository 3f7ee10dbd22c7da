// TestTVSmoke is the gate behind `make tv-smoke`: every benchmark kernel
// realized at every feasible occupancy level on both devices with the
// middle end on. On the real scheduler over the real corpus the legality
// check (internal/tv) must run and must accept every schedule the
// strict-decrease guard keeps: checked > 0 and rejected == 0. A rejection
// here means the scheduler reversed a dependence, or the checker has an
// edge the scheduler's variable-granularity ones do not imply — a bug in
// one of the two either way.
package orion_test

import (
	"errors"
	"testing"

	orion "repro"
	"repro/internal/core"
	"repro/internal/tv"
)

func TestTVSmoke(t *testing.T) {
	ks, err := orion.Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	// The realize cache would swallow repeated realizations from earlier
	// tests in the same binary; bypass it so every level actually runs the
	// pipeline, and take the TV counters' delta so the assertion covers
	// exactly this sweep.
	wasOn := core.RealizeCacheEnabled()
	core.SetRealizeCacheEnabled(false)
	defer core.SetRealizeCacheEnabled(wasOn)
	checked0, rejected0, _ := tv.Counters()

	levels := 0
	for _, d := range orion.Devices() {
		for _, k := range ks {
			r := orion.NewRealizer(d, orion.SmallCache)
			r.Opt = true
			lad := r.NewLadder(k.Prog)
			for _, lvl := range orion.OccupancyLevels(d, k.Prog.BlockDim) {
				if _, err := lad.Realize(lvl); err != nil {
					var inf *core.ErrInfeasible
					if !errors.As(err, &inf) {
						t.Fatalf("%s on %s level %d: %v", k.Name, d.Name, lvl, err)
					}
					continue
				}
				levels++
			}
		}
	}
	checked, rejected, _ := tv.Counters()
	checked, rejected = checked-checked0, rejected-rejected0
	t.Logf("tv-smoke: %d levels realized, %d schedules checked, %d rejected", levels, checked, rejected)
	if checked == 0 {
		t.Fatal("no schedule was checked: the middle end never ran (smoke is vacuous)")
	}
	if rejected != 0 {
		t.Fatalf("%d schedules rejected: the scheduler and the legality check disagree", rejected)
	}
}

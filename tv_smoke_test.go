// TestTVSmoke is the gate behind `make tv-smoke`: every benchmark kernel
// realized at every feasible occupancy level on both devices with the
// middle end on (translation validation is always strict). The claim it
// enforces is precision, not just soundness — on the real scheduler over
// the real corpus the validator must prove every schedule the
// strict-decrease guard accepts: zero rejections (no miscompiles) and
// zero abstentions (the normalizer is complete for everything the
// scheduler actually does, so the differential oracle is never needed as
// a fallback). A rejection here is a compiler bug; an abstention is a
// validator-coverage regression.
package orion_test

import (
	"errors"
	"testing"

	orion "repro"
	"repro/internal/core"
)

func TestTVSmoke(t *testing.T) {
	ks, err := orion.Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	// The realize cache would swallow repeated realizations from earlier
	// tests in the same binary; bypass it so every level actually runs the
	// pipeline, and reset the TV counters so the assertion covers exactly
	// this sweep.
	wasOn := core.RealizeCacheEnabled()
	core.SetRealizeCacheEnabled(false)
	defer core.SetRealizeCacheEnabled(wasOn)
	orion.ResetTVCounters()

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
	checked, rejected, abstained := orion.TVCounters()
	t.Logf("tv-smoke: %d levels realized, %d pass applications checked, %d rejected, %d abstained",
		levels, checked, rejected, abstained)
	if checked == 0 {
		t.Fatal("no pass application was validated: the middle end never ran (smoke is vacuous)")
	}
	if rejected != 0 {
		t.Fatalf("%d pass applications rejected: a pass produced a real miscompile", rejected)
	}
	if abstained != 0 {
		t.Fatalf("%d pass applications abstained: the normalizer lost precision on the real corpus", abstained)
	}
}

package verify

import (
	"fmt"
	"reflect"

	"repro/internal/interp"
	"repro/internal/sim"
)

// CrossBackend is the simulator's backend-equivalence oracle: it runs the
// same launch through the compiled and the interpreted execution backends
// and diffs the resulting Stats field by field. The compiled backend is a
// reimplementation, but it must be observationally invisible — every
// counter, both checksums, and the energy totals have to come out
// bit-identical, and a launch that faults must fault with the same error
// text on both sides. A profiled launch's profile, issue logs included,
// must be identical too.
func CrossBackend(cfg sim.Config, lc *interp.Launch) []Violation {
	ccfg := cfg
	ccfg.Backend = sim.BackendCompiled
	icfg := cfg
	icfg.Backend = sim.BackendInterp

	cst, cerr := sim.Simulate(ccfg, lc)
	ist, ierr := sim.Simulate(icfg, lc)

	if (cerr != nil) != (ierr != nil) {
		return []Violation{{Invariant: "cross-backend",
			Detail: fmt.Sprintf("fault mismatch: compiled err=%v, interp err=%v", cerr, ierr)}}
	}
	if cerr != nil {
		if cerr.Error() != ierr.Error() {
			return []Violation{{Invariant: "cross-backend",
				Detail: fmt.Sprintf("fault text mismatch: compiled %q, interp %q", cerr, ierr)}}
		}
		return nil // both backends faulted identically
	}
	return diffStats(cst, ist)
}

// diffStats compares two Stats structurally (profiles, two pointers, by
// prof.Profile.Equal once every other field agrees) and
// reports the first differing field by name, so a regression points
// straight at the counter that diverged.
func diffStats(compiled, interpreted *sim.Stats) []Violation {
	c, i := *compiled, *interpreted
	c.Profile, i.Profile = nil, nil
	if c == i {
		if !compiled.Profile.Equal(interpreted.Profile) {
			return []Violation{{Invariant: "cross-backend",
				Detail: "Stats.Profile: compiled and interp profiles differ"}}
		}
		return nil
	}
	cv := reflect.ValueOf(c)
	iv := reflect.ValueOf(i)
	t := cv.Type()
	for f := 0; f < t.NumField(); f++ {
		a, b := cv.Field(f).Interface(), iv.Field(f).Interface()
		if !reflect.DeepEqual(a, b) {
			return []Violation{{Invariant: "cross-backend",
				Detail: fmt.Sprintf("Stats.%s: compiled %v, interp %v", t.Field(f).Name, a, b)}}
		}
	}
	return []Violation{{Invariant: "cross-backend", Detail: "stats differ (unlocated field)"}}
}

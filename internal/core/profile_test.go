package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// TestVersionDebugProvenance: realization threads the allocator's spill
// webs onto the version as a provenance map, and every spill
// instruction in the realized binary resolves through it.
func TestVersionDebugProvenance(t *testing.T) {
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	hp := highPressure(t)
	// The highest occupancy level has the tightest register budget and
	// therefore the most spill pressure.
	v, err := r.Realize(hp, d.MaxWarpsPerSM)
	if err != nil {
		t.Fatalf("Realize: %v", err)
	}
	if v.Debug == nil {
		t.Fatal("realized version has no provenance map")
	}
	if v.Debug.RegBudget <= 0 {
		t.Fatalf("RegBudget = %d", v.Debug.RegBudget)
	}
	nspills, resolved := 0, 0
	for _, f := range v.Prog.Funcs {
		for i := range f.Instrs {
			in := &f.Instrs[i]
			if !in.IsSpill() {
				continue
			}
			nspills++
			if _, ok := v.Debug.ResolveSpill(f.Name, in.Op, in.Imm); ok {
				resolved++
			}
		}
	}
	if nspills == 0 {
		t.Fatal("high-pressure kernel at max occupancy realized without spills")
	}
	if resolved != nspills {
		t.Errorf("resolved %d of %d spill instructions", resolved, nspills)
	}

	// A roomy level still carries the map (with the budget) even when
	// nothing spilled.
	roomy, err := r.Realize(hp, 8)
	if err != nil {
		t.Fatalf("Realize roomy: %v", err)
	}
	if roomy.Debug == nil || roomy.Debug.RegBudget <= 0 {
		t.Fatalf("roomy provenance = %+v", roomy.Debug)
	}
}

// TestSuiteHotSpotResolvesToWeb is the provenance acceptance check: a
// suite kernel profiled at a spill-heavy occupancy level must attribute
// stall cycles to at least one named spill web, tying the profile back
// to the occupancy decision that created the spill.
func TestSuiteHotSpotResolvesToWeb(t *testing.T) {
	k, err := kernels.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	d := device.GTX680()
	r := NewRealizer(d, device.SmallCache)
	v, err := r.Realize(k.Prog, d.MaxWarpsPerSM)
	if err != nil {
		t.Fatalf("Realize: %v", err)
	}
	st, err := v.ProfileCtx(d, device.SmallCache, d.MaxWarpsPerSM,
		&interp.Launch{Prog: v.Prog, GridWarps: k.GridWarps}, obs.Ctx{})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	rep := BuildProfileReport(v, d, st)
	if rep.RegBudget <= 0 {
		t.Errorf("no occupancy decision recorded (RegBudget = %d)", rep.RegBudget)
	}
	if len(rep.Webs) == 0 {
		t.Fatal("no stall cycles attributed to any spill web")
	}
	for _, wc := range rep.Webs {
		if wc.Name == "" || wc.Location == "" {
			t.Errorf("web cost missing identity: %+v", wc)
		}
		if wc.Issues == 0 {
			t.Errorf("web %s has no issues", wc.Name)
		}
	}
}

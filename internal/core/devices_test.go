package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/kernels"
)

// TestTuneOnExtensibilityPlatforms runs the full pipeline on the two
// non-paper devices (GTX580, TeslaK20) — the paper's claim that new
// architectures only need a device description.
func TestTuneOnExtensibilityPlatforms(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning runs are slow")
	}
	k, err := kernels.ByName("srad")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*device.Device{device.GTX580(), device.TeslaK20()} {
		r := NewRealizer(d, device.SmallCache)
		rep, err := r.Tune(k.Prog, Launch{GridWarps: 448, Iterations: 6})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if rep.Chosen == nil {
			t.Fatalf("%s: nothing selected", d.Name)
		}
		want, err := interp.Run(&interp.Launch{Prog: k.Prog, GridWarps: 448}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Checksum != want.Checksum {
			t.Errorf("%s: checksum %x, want %x", d.Name, rep.Checksum, want.Checksum)
		}
	}
}

// TestK20WideRegisterBudget: with a 255-register ceiling, the original
// version of a high-pressure kernel should fit without spilling at the
// lowest occupancy level.
func TestK20WideRegisterBudget(t *testing.T) {
	d := device.TeslaK20()
	r := NewRealizer(d, device.SmallCache)
	k, err := kernels.ByName("cfd")
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Realize(k.Prog, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v.LocalSlots != 0 {
		t.Errorf("cfd spilled to local (%d slots) despite a 255-register budget", v.LocalSlots)
	}
	if v.RegsPerThread <= 63 {
		t.Logf("note: cfd fit in %d registers (within the paper devices' ceiling too)", v.RegsPerThread)
	}
	if v.RegsPerThread > d.MaxRegsPerThread {
		t.Errorf("regs %d exceed the K20 ceiling", v.RegsPerThread)
	}
}

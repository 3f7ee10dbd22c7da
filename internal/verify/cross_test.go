package verify

import (
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestCrossBackendProfiled: a profiled launch carries one profile per
// backend. Profiles that agree field for field, issue logs included, are
// no violation; a profile or an issue log that differs is one, named as
// such.
func TestCrossBackendProfiled(t *testing.T) {
	k, err := kernels.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Device: device.GTX680(), Cache: device.SmallCache,
		BlocksPerSM: 2, RegsPerThread: 32, Profile: true}
	lc := &interp.Launch{Prog: k.Prog, GridWarps: 64}
	if vs := CrossBackend(cfg, lc); vs != nil {
		t.Fatalf("profiled bfs: %s", vs[0].Detail)
	}

	a, err := sim.Simulate(cfg, lc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Simulate(cfg, lc)
	if err != nil {
		t.Fatal(err)
	}
	b.Profile.Issues[0]++
	vs := diffStats(a, b)
	if len(vs) != 1 || vs[0].Detail != "Stats.Profile: compiled and interp profiles differ" {
		t.Fatalf("perturbed profile: %+v", vs)
	}
	b.Profile.Issues[0]--
	b.Profile.Warps[0][0] += 2 // one issue a cycle later
	vs = diffStats(a, b)
	if len(vs) != 1 || vs[0].Detail != "Stats.Profile: compiled and interp profiles differ" {
		t.Fatalf("perturbed issue log: %+v", vs)
	}
}

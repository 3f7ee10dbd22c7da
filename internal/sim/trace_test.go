package sim

import (
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
)

// TestTraceRecordsIssues: a profiled launch logs the issues of global
// warps 0..traceWarps-1 and no others, each warp's log in cycle order.
func TestTraceRecordsIssues(t *testing.T) {
	p := isa.MustParse(memKernel)
	st, err := Simulate(Config{
		Device: device.GTX680(), Cache: device.SmallCache,
		BlocksPerSM: 1, RegsPerThread: 16, Profile: true,
	}, &interp.Launch{Prog: p, GridWarps: traceWarps + 8})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if st.Profile == nil || len(st.Profile.Warps) != traceWarps {
		t.Fatalf("want %d issue logs, got profile %v", traceWarps, st.Profile)
	}
	logged, memSeen := 0, false
	for g, log := range st.Profile.Warps {
		if len(log) > 0 {
			logged++
		}
		var last uint64
		for _, rec := range log {
			cycle := rec >> 1
			if cycle > st.Cycles {
				t.Fatalf("warp %d: record beyond end of simulation: %d > %d", g, cycle, st.Cycles)
			}
			if cycle < last {
				t.Fatalf("warp %d: records out of order", g)
			}
			last = cycle
			if rec&1 != 0 {
				memSeen = true
			}
		}
	}
	if logged != traceWarps {
		t.Errorf("logged %d warps, want %d", logged, traceWarps)
	}
	if !memSeen {
		t.Error("no memory issues recorded for a memory kernel")
	}

	// A launch of exactly traceWarps warps logs every issue.
	st, err = Simulate(Config{
		Device: device.GTX680(), Cache: device.SmallCache,
		BlocksPerSM: 1, RegsPerThread: 16, Profile: true,
	}, &interp.Launch{Prog: p, GridWarps: traceWarps})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	var n uint64
	for _, log := range st.Profile.Warps {
		n += uint64(len(log))
	}
	if n != st.Instructions {
		t.Errorf("issue logs hold %d records, want all %d instructions", n, st.Instructions)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	p := isa.MustParse(memKernel)
	st, err := Simulate(Config{
		Device: device.GTX680(), Cache: device.SmallCache,
		BlocksPerSM: 1, RegsPerThread: 16,
	}, &interp.Launch{Prog: p, GridWarps: 8})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if st.Profile != nil {
		t.Error("profile allocated without Profile")
	}
}

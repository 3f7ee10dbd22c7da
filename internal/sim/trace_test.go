package sim

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
)

// TestTraceRecordsIssues: a profiled launch traces global warps
// 0..traceWarps-1 and no others.
func TestTraceRecordsIssues(t *testing.T) {
	p := isa.MustParse(memKernel)
	st, err := Simulate(Config{
		Device: device.GTX680(), Cache: device.SmallCache,
		BlocksPerSM: 1, RegsPerThread: 16, Profile: true,
	}, &interp.Launch{Prog: p, GridWarps: traceWarps + 8})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if st.Trace == nil || len(st.Trace.Records) == 0 {
		t.Fatal("no trace recorded")
	}
	seen := map[int32]bool{}
	memSeen := false
	for _, r := range st.Trace.Records {
		if r.Warp >= traceWarps {
			t.Fatalf("record for untraced warp %d", r.Warp)
		}
		if r.Cycle > st.Cycles {
			t.Fatalf("record beyond end of simulation: %d > %d", r.Cycle, st.Cycles)
		}
		seen[r.Warp] = true
		if r.Mem {
			memSeen = true
		}
	}
	if len(seen) != traceWarps {
		t.Errorf("traced %d warps, want %d", len(seen), traceWarps)
	}
	if !memSeen {
		t.Error("no memory issues recorded for a memory kernel")
	}
	// Records of one warp must be in non-decreasing cycle order.
	last := map[int32]uint64{}
	for _, r := range st.Trace.Records {
		if r.Cycle < last[r.Warp] {
			t.Fatal("per-warp records out of order")
		}
		last[r.Warp] = r.Cycle
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
	if st.Trace != nil {
		t.Error("trace allocated without Profile")
	}
}

func TestTimelineRendering(t *testing.T) {
	p := isa.MustParse(memKernel)
	st, err := Simulate(Config{
		Device: device.GTX680(), Cache: device.SmallCache,
		BlocksPerSM: 1, RegsPerThread: 16, Profile: true,
	}, &interp.Launch{Prog: p, GridWarps: 2})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	out := st.Trace.Timeline(st.Cycles, 60)
	if !strings.Contains(out, "w0") || !strings.Contains(out, "w1") {
		t.Errorf("timeline missing warp rows:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	rows := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "w") && strings.Contains(l, "|") {
			rows++
			if got := strings.Count(l, "|"); got != 2 {
				t.Errorf("row not delimited: %q", l)
			}
		}
	}
	if rows != 2 {
		t.Errorf("timeline rows = %d, want 2", rows)
	}
	empty := (&Trace{}).Timeline(0, 40)
	if !strings.Contains(empty, "no trace") {
		t.Error("empty trace rendering wrong")
	}
}

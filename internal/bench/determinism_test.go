package bench

import (
	"testing"

	"repro/internal/core"
)

// determinismExperiments covers every fan-out shape in the suite: a
// per-kernel sweep (fig5), a per-(device × kernel) grid with post-pass
// aggregation (fig12), and a tuning table (table2).
var determinismExperiments = []string{"fig5", "fig12", "table2"}

func renderAll(t *testing.T, s *Suite) map[string]string {
	t.Helper()
	out := make(map[string]string, len(determinismExperiments))
	for _, id := range determinismExperiments {
		e, err := s.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out[id] = tbl.String()
	}
	return out
}

// TestDeterminismSerialVsParallel asserts the acceptance criterion: the
// suite's tables are byte-identical whether rows run on one worker from
// emptied caches or on many workers served from the caches that serial run
// left warm.
func TestDeterminismSerialVsParallel(t *testing.T) {
	core.ResetRealizeCache()
	core.ResetRunCache()
	serial := New(0.03125)
	serial.Parallel = 1
	want := renderAll(t, serial)

	par := New(0.03125)
	par.Parallel = 8
	got := renderAll(t, par)

	for _, id := range determinismExperiments {
		if got[id] != want[id] {
			t.Errorf("%s differs between serial/cold and parallel/warm runs:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, want[id], got[id])
		}
	}
}

// TestDeterminismRepeatedRuns asserts two parallel, cached runs agree —
// output must not depend on goroutine scheduling or cache state.
func TestDeterminismRepeatedRuns(t *testing.T) {
	core.ResetRealizeCache()
	core.ResetRunCache()
	s1 := New(0.03125)
	s1.Parallel = 8
	first := renderAll(t, s1)

	s2 := New(0.03125)
	s2.Parallel = 8
	second := renderAll(t, s2)

	for _, id := range determinismExperiments {
		if first[id] != second[id] {
			t.Errorf("%s differs across two identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
				id, first[id], second[id])
		}
	}
}

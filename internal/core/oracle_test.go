package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/obs"
)

func countSpans(c *obs.Collector, name string) (n uint64) {
	for _, s := range c.SpanNames() {
		if s == name {
			n++
		}
	}
	return n
}

// TestOneReferencePerCompile pins the oracle's ownership: a compile
// executes its source once however many levels it verifies against it
// (in parallel), and a decoded multi-version binary executes its original
// version once however many candidates pass the tuner's gate.
func TestOneReferencePerCompile(t *testing.T) {
	k, err := kernels.ByName("cfd")
	if err != nil {
		t.Fatal(err)
	}
	// Fresh Versions, so the per-version verification memo cannot answer
	// for a binary an earlier test already checked.
	ResetRealizeCache()
	r := NewRealizer(device.GTX680(), device.SmallCache)
	r.Obs = obs.New()
	cr, err := r.Compile(k.Prog, true)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Obs.Metrics()
	refs, diffs := m.Counter("verify.reference_runs").Value(), m.Counter("verify.differential_runs").Value()
	if refs != 1 || diffs < 3 {
		t.Errorf("compile: %d reference runs for %d differential checks, want 1 for several", refs, diffs)
	}
	if got := countSpans(r.Obs, "verify.reference"); got != refs {
		t.Errorf("compile: %d verify.reference spans, counter says %d", got, refs)
	}
	if got := countSpans(r.Obs, "verify.differential"); got != diffs {
		t.Errorf("compile: %d verify.differential spans, counter says %d", got, diffs)
	}

	decoded, err := DecodeFat(EncodeFat(cr))
	if err != nil {
		t.Fatal(err)
	}
	r = NewRealizer(device.GTX680(), device.SmallCache)
	r.Obs = obs.New()
	distinct := map[*Version]bool{}
	for _, c := range append(decoded.Candidates, decoded.FailSafe...) {
		if err := r.verifyCandidate(decoded, c, r.Obs.Ctx()); err != nil {
			t.Fatal(err)
		}
		if c.Version != decoded.Original {
			distinct[c.Version] = true
		}
	}
	m = r.Obs.Metrics()
	refs, diffs = m.Counter("verify.reference_runs").Value(), m.Counter("verify.differential_runs").Value()
	if refs != 1 || diffs != uint64(len(distinct)) || diffs < 2 {
		t.Errorf("decoded binary: %d reference runs, %d differential checks for %d distinct versions, want 1 and one each",
			refs, diffs, len(distinct))
	}
}

package core

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/isa"
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

// verifiedLevels returns the target levels of the "verify" spans c
// recorded, one per span, in record order.
func verifiedLevels(t *testing.T, c *obs.Collector) []int {
	t.Helper()
	var out []int
	for _, line := range spanTree(t, c) {
		if !strings.HasPrefix(line, "verify <- ") {
			continue
		}
		m := regexp.MustCompile(`target_warps=(\d+)`).FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("verify span without a level: %s", line)
		}
		lvl, _ := strconv.Atoi(m[1])
		out = append(out, lvl)
	}
	return out
}

// TestOneReferencePerCompile pins the oracle's ownership: a compile
// executes its source once however many levels it verifies against it
// (in parallel), and each distinct realized program once however many
// levels it serves; a decoded multi-version binary executes its original
// version once however many candidates pass the tuner's gate; a sweep
// executes each distinct program once. Every check that reaches the
// oracle records one verify.differential span.
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
	if got := countSpans(r.Obs, "verify.reference"); refs != 1 || got != refs {
		t.Errorf("compile: %d reference runs (%d spans), want 1", refs, got)
	}
	// The compile verified these levels; an ungated ladder realizes the
	// same bytes at each, and the oracle ran once per distinct program.
	levels := verifiedLevels(t, r.Obs)
	if got := countSpans(r.Obs, "verify.differential"); got != uint64(len(levels)) {
		t.Errorf("compile: %d verify.differential spans for %d checks", got, len(levels))
	}
	plain := NewRealizer(device.GTX680(), device.SmallCache)
	plain.Verify, plain.Lint = false, LintOff
	lad := plain.NewLadder(k.Prog)
	distinct := map[isa.Fingerprint]bool{}
	for _, lvl := range levels {
		v, err := lad.Realize(lvl)
		if err != nil {
			t.Fatal(err)
		}
		distinct[v.fingerprint()] = true
	}
	if diffs != uint64(len(distinct)) || len(distinct) < 3 || len(distinct) >= len(levels) {
		t.Errorf("compile: %d differential runs for %d checks of %d distinct programs, want one per program",
			diffs, len(levels), len(distinct))
	}

	decoded, err := DecodeFat(EncodeFat(cr))
	if err != nil {
		t.Fatal(err)
	}
	r = NewRealizer(device.GTX680(), device.SmallCache)
	r.Obs = obs.New()
	versions := map[*Version]bool{}
	distinct = map[isa.Fingerprint]bool{}
	for _, c := range append(decoded.Candidates, decoded.FailSafe...) {
		if err := r.verifyCandidate(decoded, c, r.Obs.Ctx()); err != nil {
			t.Fatal(err)
		}
		if c.Version != decoded.Original {
			versions[c.Version] = true
			distinct[c.Version.fingerprint()] = true
		}
	}
	m = r.Obs.Metrics()
	refs, diffs = m.Counter("verify.reference_runs").Value(), m.Counter("verify.differential_runs").Value()
	if refs != 1 || diffs != uint64(len(distinct)) || diffs < 2 {
		t.Errorf("decoded binary: %d reference runs, %d differential runs for %d distinct programs, want 1 and one each",
			refs, diffs, len(distinct))
	}
	if got := countSpans(r.Obs, "verify.differential"); got != uint64(len(versions)) {
		t.Errorf("decoded binary: %d verify.differential spans for %d versions checked", got, len(versions))
	}

	// A sweep of hotspot on the GTX680 allocates byte-identical programs
	// from four budget pairs (8, 16, 24 and 32 warps): every level's gate
	// reaches the oracle, and each distinct program executes once.
	hs, err := kernels.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	ResetRealizeCache()
	r = NewRealizer(device.GTX680(), device.SmallCache)
	r.Obs = obs.New()
	out, err := r.Sweep(hs.Prog, 2*hs.Prog.BlockDim/32)
	if err != nil {
		t.Fatal(err)
	}
	allocated := map[*isa.Program]bool{}
	distinct = map[isa.Fingerprint]bool{}
	for _, lr := range out {
		allocated[lr.Version.Prog] = true
		distinct[lr.Version.fingerprint()] = true
	}
	if len(distinct) >= len(allocated) {
		t.Fatalf("sweep: %d allocations are %d distinct programs: no two levels allocate the same bytes",
			len(allocated), len(distinct))
	}
	if diffs := r.Obs.Metrics().Counter("verify.differential_runs").Value(); diffs != uint64(len(distinct)) {
		t.Errorf("sweep: %d differential runs for %d levels of %d distinct programs, want one per program",
			diffs, len(out), len(distinct))
	}
	if got := countSpans(r.Obs, "verify.differential"); got != uint64(len(out)) {
		t.Errorf("sweep: %d verify.differential spans for %d levels", got, len(out))
	}
}

// storeKernel stores val to one global word per warp.
func storeKernel(val int) string {
	return fmt.Sprintf(`
.kernel st
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 2
  SHL v2, v0, v1
  MOVI v3, %d
  STG [v2], v3
  EXIT
`, val)
}

// TestOracleVerdictNotCachedOnPanic: a differential run that panics
// leaves no verdict behind, so a later check of the same program runs it
// again and reports its violation instead of passing on an empty verdict.
func TestOracleVerdictNotCachedOnPanic(t *testing.T) {
	orig := isa.MustParse(storeKernel(7))
	tampered := &Version{Prog: isa.MustParse(storeKernel(8))}
	x := obs.New().Ctx()
	var o oracleRef
	ref := o.get(orig, x)
	o.ref = nil // Check on a nil reference panics
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a check against a nil reference did not panic")
			}
		}()
		o.check(tampered, x)
	}()
	if n := o.verdicts.Len(); n != 0 {
		t.Fatalf("%d verdicts cached after a panicked run", n)
	}
	o.ref = ref
	if vs := o.check(tampered, x); len(vs) == 0 {
		t.Error("a tampered program passed the oracle after a panicked check of it")
	}
}

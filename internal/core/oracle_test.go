package core

import (
	"errors"
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

// TestOneReferencePerCompile pins the oracle's ownership and the
// interning it rests on: a compile executes its source once however many
// levels it verifies against it (in parallel); a decoded multi-version
// binary executes the source it carries once however many versions pass
// the tuner's gate; and on every path (compile, decoded binary, sweep,
// and a sweep after a baseline) each distinct realized program is linted
// once and executed by the oracle once, because a realization and
// DecodeFat hold one *isa.Program per distinct binary. Every check that reaches the oracle records one
// verify.differential span.
func TestOneReferencePerCompile(t *testing.T) {
	k, err := kernels.ByName("cfd")
	if err != nil {
		t.Fatal(err)
	}
	// Fresh programs, so the verification outcomes they keep cannot answer
	// for a binary an earlier test already checked.
	ResetRealizeCache()
	r := NewRealizer(device.GTX680(), device.SmallCache)
	r.Obs = obs.New()
	cr, err := r.Compile(k.Prog.Clone(), true)
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
		distinct[fingerprintOf(v.Prog)] = true
	}
	// sa.checks also counts the input program's lint.
	checks := m.Counter("sa.checks").Value()
	if diffs != uint64(len(distinct)) || checks != diffs+1 || len(distinct) < 3 || len(distinct) >= len(levels) {
		t.Errorf("compile: %d differential runs and %d lint runs (input included) for %d checks of %d distinct programs, want one each per program",
			diffs, checks, len(levels), len(distinct))
	}

	// A decoded binary is checked against its source: one reference run,
	// and one differential run per distinct program among all its
	// versions, the original included.
	decoded, err := DecodeFat(EncodeFat(cr))
	if err != nil {
		t.Fatal(err)
	}
	r = NewRealizer(device.GTX680(), device.SmallCache)
	r.Obs = obs.New()
	pointers := map[*isa.Program]bool{}
	distinct = map[isa.Fingerprint]bool{}
	versions := map[*Version]bool{}
	for _, c := range fatRefs(decoded) {
		if err := r.verifyCandidate(decoded, c, r.Obs.Ctx()); err != nil {
			t.Fatal(err)
		}
		if err := r.lintProgram(c.Version.Prog, c.TargetWarps, r.Obs.Ctx()); err != nil {
			t.Fatal(err)
		}
		pointers[c.Version.Prog] = true
		distinct[fingerprintOf(c.Version.Prog)] = true
		versions[c.Version] = true
	}
	if len(pointers) != len(distinct) {
		t.Errorf("decoded binary: %d programs for %d distinct encodings, want one each", len(pointers), len(distinct))
	}
	reference(decoded.Source, r.Obs.Ctx()) // held on the source: no second run
	m = r.Obs.Metrics()
	refs, diffs, checks = m.Counter("verify.reference_runs").Value(), m.Counter("verify.differential_runs").Value(), m.Counter("sa.checks").Value()
	if refs != 1 || diffs != uint64(len(distinct)) || checks != diffs || diffs < 3 {
		t.Errorf("decoded binary: %d reference runs, %d differential runs and %d lint runs for %d distinct programs, want 1 and one each",
			refs, diffs, checks, len(distinct))
	}
	if got := countSpans(r.Obs, "verify.differential"); got != uint64(len(versions)) {
		t.Errorf("decoded binary: %d verify.differential spans for %d versions checked", got, len(versions))
	}

	// A sweep of hotspot on the GTX680 allocates byte-identical programs
	// from four budget pairs (8, 16, 24 and 32 warps). The ladder hands
	// every level of them one program, so each distinct program is linted
	// once and executed once, while every level's gate reaches the oracle.
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
	pointers = map[*isa.Program]bool{}
	distinct = map[isa.Fingerprint]bool{}
	for _, lr := range out {
		pointers[lr.Version.Prog] = true
		distinct[fingerprintOf(lr.Version.Prog)] = true
	}
	ResetRealizeCache() // the ungated ladder below fills every budget itself
	lad = plain.NewLadder(hs.Prog)
	for _, lr := range out {
		if _, err := lad.Realize(lr.TargetWarps); err != nil {
			t.Fatal(err)
		}
	}
	if fills, progs := lad.re.fills.Len(), lad.re.progs.Len(); fills <= progs {
		t.Fatalf("sweep: %d budget fills are %d distinct programs: no two fills allocate the same bytes", fills, progs)
	}
	if len(pointers) != len(distinct) {
		t.Errorf("sweep: %d programs for %d distinct binaries, want one each", len(pointers), len(distinct))
	}
	m = r.Obs.Metrics()
	if diffs, checks := m.Counter("verify.differential_runs").Value(), m.Counter("sa.checks").Value(); diffs != uint64(len(distinct)) || checks != diffs {
		t.Errorf("sweep: %d differential runs and %d lint runs for %d levels of %d distinct programs, want one each per program",
			diffs, checks, len(out), len(distinct))
	}
	if got := countSpans(r.Obs, "verify.differential"); got != uint64(len(out)) {
		t.Errorf("sweep: %d verify.differential spans for %d levels", got, len(out))
	}

	// Across calls too: Baseline realizes level 8, and the sweep after it
	// fills levels 16-32 with the same bytes. Both calls share the
	// program's realization, so the sweep's levels hold one program per
	// binary, Baseline's included, and nothing is linted or diffed twice.
	ResetRealizeCache()
	r = NewRealizer(device.GTX680(), device.SmallCache)
	r.Obs = obs.New()
	if _, _, err := r.Baseline(hs.Prog, 2*hs.Prog.BlockDim/32); err != nil {
		t.Fatal(err)
	}
	if out, err = r.Sweep(hs.Prog, 2*hs.Prog.BlockDim/32); err != nil {
		t.Fatal(err)
	}
	pointers = map[*isa.Program]bool{}
	distinct = map[isa.Fingerprint]bool{}
	for _, lr := range out {
		pointers[lr.Version.Prog] = true
		distinct[fingerprintOf(lr.Version.Prog)] = true
	}
	m = r.Obs.Metrics()
	diffs, checks = m.Counter("verify.differential_runs").Value(), m.Counter("sa.checks").Value()
	if len(out) != 8 || len(pointers) != 4 || len(distinct) != 4 || checks != 4 || diffs != 4 {
		t.Errorf("baseline then sweep: %d levels hold %d programs for %d distinct binaries, %d lint runs and %d differential runs; want 8 levels, 4 of each",
			len(out), len(pointers), len(distinct), checks, diffs)
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
// leaves no verdict on the realized program (isa.Program.Derived stores
// nothing when its build panics), so a later check of the same program
// runs it again and reports its violation instead of passing on an empty
// verdict.
func TestOracleVerdictNotCachedOnPanic(t *testing.T) {
	orig := isa.MustParse(storeKernel(7))
	tampered := isa.MustParse(storeKernel(8))
	col := obs.New()
	x := col.Ctx()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a check against a nil reference did not panic")
			}
		}()
		verdict(orig, nil, tampered, x)
	}()
	ref := reference(orig, x)
	if vs := verdict(orig, ref, tampered, x); len(vs) == 0 {
		t.Error("a tampered program passed the oracle after a panicked check of it")
	}
	if vs := verdict(orig, ref, tampered, x); len(vs) == 0 {
		t.Error("the verdict kept on the program lost its violation")
	}
	if n := col.Metrics().Counter("verify.differential_runs").Value(); n != 1 {
		t.Errorf("%d completed differential runs of one program, want 1", n)
	}
}

// TestTuneCompiledNeedsSource: the source is the oracle's one reference
// and the static selection's input, so a compile result without one is
// refused before anything runs.
func TestTuneCompiledNeedsSource(t *testing.T) {
	k, err := kernels.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRealizer(device.GTX680(), device.SmallCache)
	cr, err := r.Compile(k.Prog, true)
	if err != nil {
		t.Fatal(err)
	}
	cr.Source = nil
	if _, err := r.TuneCompiled(cr, Launch{GridWarps: 64, Iterations: 1}); err == nil {
		t.Error("a compile result without its source tuned")
	}
}

// TestDecodedBinaryCheckedAgainstSource: the tuner diffs a decoded
// binary's versions against the source it carries, not against its own
// original. A decreasing-direction binary runs only the original version
// (its candidates are padded levels of it), so a decoded original with
// one MOVI immediate flipped must fail the tuner's gate.
func TestDecodedBinaryCheckedAgainstSource(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRealizer(device.GTX680(), device.SmallCache)
	seen := 0
	for _, k := range ks {
		cr, err := r.Compile(k.Prog, true)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if cr.Direction != Decreasing {
			continue
		}
		seen++
		got, err := DecodeFat(EncodeFat(cr))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		flipped := false
		for _, f := range got.Original.Prog.Funcs {
			for i := range f.Instrs {
				if in := &f.Instrs[i]; !flipped && in.Op == isa.OpMovI && !in.IsSpill() {
					in.Imm ^= 1
					flipped = true
				}
			}
		}
		if !flipped {
			t.Fatalf("%s: no MOVI in the original version", k.Name)
		}
		_, err = r.TuneCompiled(got, Launch{GridWarps: k.GridWarps, Iterations: 3})
		var ve *VerifyError
		if !errors.As(err, &ve) {
			t.Errorf("%s: a decoded original with a flipped MOVI tuned with error %v, want a *VerifyError", k.Name, err)
		}
	}
	if seen == 0 {
		t.Fatal("no suite kernel compiles in the decreasing direction")
	}
}

package verify_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fuzzcorpus"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/occupancy"
	"repro/internal/verify"
)

const lanesSrc = `
.kernel lanes
.blockdim 32
.func main
  RDSP v0, LANEID
  MOVI v1, 3
  IADD v2, v0, v1
  STG [v2], v2
  EXIT
`

const spinSrc = `
.kernel spin
.blockdim 32
.func main
L0:
  BRA L0
`

// tamper returns a clone of p whose first MOVI loads a different
// constant, or nil when p has none.
func tamper(p *isa.Program) *isa.Program {
	for fi, f := range p.Funcs {
		for i := range f.Instrs {
			if f.Instrs[i].Op == isa.OpMovI {
				q := p.Clone()
				q.Funcs[fi].Instrs[i].Imm++
				return q
			}
		}
	}
	return nil
}

// realizations compiles p at every occupancy level of d without the
// built-in verification (the test is the verifier) and returns the
// distinct realized programs.
func realizations(p *isa.Program, d *device.Device) []*isa.Program {
	r := core.NewRealizer(d, device.SmallCache)
	r.Verify = false
	r.Lint = core.LintOff
	lad := r.NewLadder(p)
	var out []*isa.Program
	seen := map[*isa.Program]bool{}
	for _, lvl := range occupancy.Levels(d, p.BlockDim) {
		v, err := lad.Realize(lvl)
		if err != nil || seen[v.Prog] {
			continue
		}
		seen[v.Prog] = true
		out = append(out, v.Prog)
	}
	return out
}

// checkAgainstLegacy requires one shared reference for orig to answer
// exactly as the old from-scratch Peek/Step oracle does, for every
// realization and for a tampered copy of each. It returns how many
// comparisons ended in a violation.
func checkAgainstLegacy(t *testing.T, name string, orig *isa.Program, realized []*isa.Program) (violations int) {
	t.Helper()
	ref := verify.NewReference(orig, 0, 0)
	for i, rp := range realized {
		for _, cand := range []*isa.Program{rp, tamper(rp)} {
			if cand == nil {
				continue
			}
			want := verify.LegacyDifferential(orig, cand, 0, 0)
			got := ref.Check(cand)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s realization %d: shared reference says %v, one-shot Peek/Step oracle says %v",
					name, i, got, want)
			}
			if one := verify.Differential(orig, cand, 0, 0); !reflect.DeepEqual(one, want) {
				t.Errorf("%s realization %d: Differential says %v, one-shot Peek/Step oracle says %v",
					name, i, one, want)
			}
			if len(want) > 0 {
				violations++
			}
		}
	}
	return violations
}

// TestReferenceMatchesLegacyOracle is the equivalence gate for the shared
// reference and the event-free stepping under it: every suite kernel on
// both devices at every feasible level, both checked-in fuzz corpora, and
// hand-written lane-aware programs, each also with a seeded miscompile.
func TestReferenceMatchesLegacyOracle(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	checked, violations := 0, 0
	// The runaway rule (a realized step-limit hit is a miscompile when the
	// original came no nearer than limit/8) holds only while realization
	// keeps per-warp step counts well under 8x the original's.
	const maxStepRatio = 2.0
	worst, worstAt := 0.0, ""
	for _, d := range device.Both() {
		for _, k := range ks {
			rs := realizations(k.Prog, d)
			if len(rs) == 0 {
				t.Errorf("%s on %s: no level realized", k.Name, d.Name)
			}
			checked += len(rs)
			violations += checkAgainstLegacy(t, k.Name+"/"+d.Name, k.Prog, rs)
			orig := maxWarpSteps(t, k.Prog)
			for i, rp := range rs {
				if ratio := float64(maxWarpSteps(t, rp)) / float64(orig); ratio > worst {
					worst, worstAt = ratio, fmt.Sprintf("%s/%s realization %d", k.Name, d.Name, i)
				}
			}
		}
	}
	if worst > maxStepRatio {
		t.Errorf("realized/original largest per-warp steps reach %.3f (%s), above %.0f", worst, worstAt, maxStepRatio)
	}

	corpus := 0
	for _, dir := range []string{
		"../isa/testdata/fuzz/FuzzDecode",
		"../core/testdata/fuzz/FuzzRealize",
	} {
		inputs, err := fuzzcorpus.Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			p, err := isa.Decode(in.Data)
			if err != nil || isa.Validate(p) != nil || len(p.Funcs) > 8 || p.BlockDim > 1024 {
				continue
			}
			corpus++
			// The program against itself too: corpus inputs need not be
			// realizable, but the oracle must still agree on them.
			rs := append(realizations(p, device.GTX680()), p)
			checked += len(rs)
			violations += checkAgainstLegacy(t, in.Name, p, rs)
		}
	}

	// Lane-aware programs take the checksum path; a lane-aware candidate
	// for a warp-scalar original (and the reverse) crosses the two.
	lanes, clean, spin := allocated(t, lanesSrc), allocated(t, cleanSrc), allocated(t, spinSrc)
	violations += checkAgainstLegacy(t, "lanes", lanes, []*isa.Program{lanes, clean, spin})
	violations += checkAgainstLegacy(t, "clean", clean, []*isa.Program{clean, lanes, spin})
	checkAgainstLegacy(t, "spin", spin, []*isa.Program{clean, lanes})

	if violations == 0 {
		t.Error("no comparison ended in a violation: the reject path went unexercised")
	}
	t.Logf("%d realizations (%d corpus programs), %d violating comparisons; largest step ratio %.3f (%s)",
		checked, corpus, violations, worst, worstAt)
}

// maxWarpSteps is p's largest per-warp dynamic instruction count on the
// oracle's default launch (two blocks' worth of warps).
func maxWarpSteps(t *testing.T, p *isa.Program) int {
	t.Helper()
	res, err := interp.Run(&interp.Launch{Prog: p, GridWarps: max(2, 2*p.BlockDim/32)}, 0)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return slices.Max(res.WarpSteps)
}

// TestSharedReferenceRejectsAndAbstains runs the tamper and abstention
// cases of TestDifferentialCatchesTampering{,SIMT} and
// TestDifferentialAbstains through one reference per original, reusing it
// after it has reported a violation.
func TestSharedReferenceRejectsAndAbstains(t *testing.T) {
	for _, src := range []string{cleanSrc, lanesSrc} {
		orig := allocated(t, src)
		tampered := tamper(orig)
		ref := verify.NewReference(orig, 0, 1000)
		first := ref.Check(tampered)
		if !hasInvariant(first, "differential") {
			t.Errorf("%s: tampered constant not caught: %v", orig.Name, first)
		}
		if vs := ref.Check(orig); vs != nil {
			t.Errorf("%s: reference reused after a violation rejects the original: %v", orig.Name, vs)
		}
		if again := ref.Check(tampered); !reflect.DeepEqual(again, first) {
			t.Errorf("%s: second check of the same miscompile: %v, first %v", orig.Name, again, first)
		}
		// Realized side running away on a budget eight times the
		// original's steps is a miscompile.
		if vs := ref.Check(allocated(t, spinSrc)); !hasInvariant(vs, "differential") {
			t.Errorf("%s: runaway realization not caught: %v", orig.Name, vs)
		}
		if vs := ref.Check(nil); !hasInvariant(vs, "differential") {
			t.Errorf("%s: nil realized program accepted: %v", orig.Name, vs)
		}
	}
	// On a budget the original used more than an eighth of, the realized
	// side running out proves nothing.
	if vs := verify.NewReference(allocated(t, slowSrc), 0, 1000).Check(allocated(t, spinSrc)); vs != nil {
		t.Errorf("expected abstention on realized step limit, got %v", vs)
	}
	// No reference: the original itself cannot finish, whatever is checked.
	ref := verify.NewReference(allocated(t, spinSrc), 0, 1000)
	for _, src := range []string{cleanSrc, lanesSrc, spinSrc} {
		if vs := ref.Check(allocated(t, src)); vs != nil {
			t.Errorf("expected abstention without a reference, got %v", vs)
		}
	}
}

// TestReferenceConcurrentChecks checks one reference from 8 goroutines at
// once (run under -race): Compile verifies a ladder's levels in parallel
// against the ladder's single reference.
func TestReferenceConcurrentChecks(t *testing.T) {
	k, err := kernels.ByName("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	rs := realizations(k.Prog, device.GTX680())
	bad := tamper(rs[0])
	ref := verify.NewReference(k.Prog, 0, 0)
	want := ref.Check(bad)
	if !hasInvariant(want, "differential") {
		t.Fatalf("tampered hotspot not caught: %v", want)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range rs {
				rp := rs[(i+g)%len(rs)]
				if vs := ref.Check(rp); vs != nil {
					t.Errorf("goroutine %d: realization rejected: %v", g, vs)
				}
				if vs := ref.Check(bad); !reflect.DeepEqual(vs, want) {
					t.Errorf("goroutine %d: miscompile reported as %v, want %v", g, vs, want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkDifferential verifies a 5-level ladder of hotspot the way a
// compile does: one-shot (the original re-executed per level) against one
// shared reference per ladder.
func BenchmarkDifferential(b *testing.B) {
	k, err := kernels.ByName("hotspot")
	if err != nil {
		b.Fatal(err)
	}
	rs := realizations(k.Prog, device.GTX680())
	if len(rs) < 5 {
		b.Fatalf("hotspot realized at %d distinct levels, want 5", len(rs))
	}
	rs = rs[:5]
	b.Run("OneShot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, rp := range rs {
				if vs := verify.Differential(k.Prog, rp, 0, 0); vs != nil {
					b.Fatal(vs)
				}
			}
		}
	})
	b.Run("SharedReference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref := verify.NewReference(k.Prog, 0, 0)
			for _, rp := range rs {
				if vs := ref.Check(rp); vs != nil {
					b.Fatal(vs)
				}
			}
		}
	})
}

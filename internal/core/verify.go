package core

import (
	"fmt"
	"strings"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/verify"
)

// VerifyError reports that a realized version failed the post-realization
// allocation verifier or the differential execution oracle. It carries the
// full violation list so callers (and obs exports) see every broken
// invariant, not just the first.
type VerifyError struct {
	Kernel      string
	TargetWarps int
	Violations  []verify.Violation
}

// Error lists the violations, one per line after the header.
func (e *VerifyError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %s at %d warps/SM failed verification (%d violation",
		e.Kernel, e.TargetWarps, len(e.Violations))
	if len(e.Violations) != 1 {
		b.WriteString("s")
	}
	b.WriteString(")")
	for _, v := range e.Violations {
		b.WriteString("\n\t")
		b.WriteString(v.String())
	}
	return b.String()
}

// referenceKey keys the differential oracle's reference on its source
// program (isa.Program.Derived).
type referenceKey struct{}

// reference returns the oracle's reference for src, kept on src: src
// executes on the first call only (concurrent first calls wait for it),
// and verify.reference_runs counts executions. Sharing is sound because
// programs are immutable after Validate, and the reference depends on
// nothing but the program and the oracle's fixed launch. A caller that
// wants the wait in its trace records its own verify.reference span.
func reference(src *isa.Program, x obs.Ctx) *verify.Reference {
	ref, _ := src.Derived(referenceKey{}, func() (any, error) {
		ref := verify.NewReference(src, 0, 0)
		x.Metrics().Counter("verify.reference_runs").Add(1)
		return ref, nil
	})
	return ref.(*verify.Reference)
}

// verdictKey keys a realized program's differential verdict by its
// source's fingerprint, a value: the verdict pins neither source nor reference.
type verdictKey struct{ src isa.Fingerprint }

// verdict returns the differential verdict on prog against ref, src's
// reference, kept on prog (isa.Program.Derived), which a realization and
// DecodeFat hold once per distinct binary: each executes once. A run that
// panics leaves no verdict, so every caller sees the panic or its own.
func verdict(src *isa.Program, ref *verify.Reference, prog *isa.Program, x obs.Ctx) []verify.Violation {
	vs, _ := prog.Derived(verdictKey{fingerprintOf(src)}, func() (any, error) {
		vs := ref.Check(prog)
		x.Metrics().Counter("verify.differential_runs").Add(1)
		return vs, nil
	})
	return vs.([]verify.Violation)
}

// verifyKey keys a verification outcome on the realized program
// (isa.Program.Derived) by everything the check reads besides the program:
// the source's fingerprint, the platform, and the version's resources.
type verifyKey struct {
	src                         isa.Fingerprint
	dev                         uint64
	cache                       device.CacheConfig
	target, regs, shared, local int
}

// verifyVersion checks a realized version against the allocation verifier
// and the differential oracle, whose one reference is src, the program the
// version was realized from (a compile's input, a decoded binary's
// Source); plat is r.cacheKey(src), whose hashes the check reuses. The
// outcome is kept on the version's program, so each distinct check runs
// once even though the tuner re-verifies its candidate on every iteration.
func (r *Realizer) verifyVersion(src *isa.Program, plat realizeKey, v *Version, x obs.Ctx) error {
	if v == nil {
		return nil
	}
	key := verifyKey{plat.prog, plat.dev, plat.cache, v.TargetWarps, v.RegsPerThread, v.SharedPerBlock, v.LocalSlots}
	_, err := v.Prog.Derived(key, func() (any, error) { return nil, r.verifyUncached(src, v, x) })
	return err
}

// verifyUncached runs the static invariants, then the execution oracle,
// and reports every violation as a structured "verify.violation" span plus
// a verify.violations counter bump before folding them into a VerifyError.
func (r *Realizer) verifyUncached(src *isa.Program, v *Version, x obs.Ctx) error {
	sp := x.Span("verify",
		obs.String("kernel", v.Prog.Name),
		obs.Int("target_warps", v.TargetWarps))
	vs := verify.Check(r.Dev, r.Cache, verify.Realized{
		Prog:           v.Prog,
		TargetWarps:    v.TargetWarps,
		RegsPerThread:  v.RegsPerThread,
		SharedPerBlock: v.SharedPerBlock,
		LocalSlots:     v.LocalSlots,
	})
	// The oracle needs a statically sane binary. Every check that reaches
	// the oracle records its wait for the verdict as a span, whichever
	// check ran the program, so the trace does not depend on scheduling.
	if len(vs) == 0 {
		ref := reference(src, sp.Ctx())
		dsp := sp.Ctx().Span("verify.differential")
		vs = verdict(src, ref, v.Prog, dsp.Ctx())
		dsp.End()
	}
	for _, viol := range vs {
		vsp := sp.Ctx().Span("verify.violation",
			obs.String("kernel", v.Prog.Name),
			obs.Int("target_warps", v.TargetWarps),
			obs.String("invariant", viol.Invariant),
			obs.String("func", viol.Func),
			obs.String("detail", viol.Detail))
		vsp.End()
	}
	if n := len(vs); n > 0 {
		x.Metrics().Counter("verify.violations").Add(uint64(n))
		sp.SetAttr(obs.Int("violations", n))
	}
	x.Metrics().Counter("verify.checks").Add(1)
	sp.End()
	if len(vs) > 0 {
		return &VerifyError{Kernel: v.Prog.Name, TargetWarps: v.TargetWarps, Violations: vs}
	}
	return nil
}

// verifyCandidate is the tuner-side check: before a candidate executes, it
// is verified against the compile result's source. The program keeps the
// outcome, so iterations after the first cost a lookup.
func (r *Realizer) verifyCandidate(cr *CompileResult, cand *Candidate, x obs.Ctx) error {
	if !r.Verify || cand == nil {
		return nil
	}
	return r.verifyVersion(cr.Source, r.cacheKey(cr.Source), cand.Version, x)
}

package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/isa"
	"repro/internal/memo"
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

// oracleRef is the differential oracle's reference for one program, built
// on first use and shared by every version checked against that program,
// with the oracle's verdict on each distinct realized program. It belongs
// to whatever owns the program's realizations (a Ladder, a CompileResult)
// and is freed with it. Sharing is sound because programs are immutable
// after Validate, the reference depends on nothing but the program and
// the oracle's fixed launch, and a verdict on nothing but the reference
// and the realized program's bytes.
type oracleRef struct {
	once     sync.Once
	ref      *verify.Reference
	verdicts *memo.Cache[isa.Fingerprint, []verify.Violation]
}

// get returns the reference for orig, executing orig on the first call
// only; concurrent first calls wait for that one execution.
func (o *oracleRef) get(orig *isa.Program, x obs.Ctx) *verify.Reference {
	o.once.Do(func() {
		sp := x.Span("verify.reference", obs.String("kernel", orig.Name))
		o.ref = verify.NewReference(orig, 0, 0)
		o.verdicts = memo.New[isa.Fingerprint, []verify.Violation]()
		sp.End()
		x.Metrics().Counter("verify.reference_runs").Add(1)
	})
	return o.ref
}

// check returns the differential verdict on v's program against the
// reference get built, executing the program once per distinct
// fingerprint: the per-level clones of one realization, and byte-identical
// allocations reached from different budgets, share one run. Concurrent
// first calls for one program wait for that run; a run that panics leaves
// no verdict, so every caller sees the panic or a verdict of its own.
func (o *oracleRef) check(v *Version, x obs.Ctx) []verify.Violation {
	vs, _ := o.verdicts.Do(v.fingerprint(), func() ([]verify.Violation, error) {
		vs := o.ref.Check(v.Prog)
		x.Metrics().Counter("verify.differential_runs").Add(1)
		return vs, nil
	})
	return vs
}

// verifyVersion checks a realized version against the allocation verifier
// and, when a distinct reference program is available, the differential
// oracle. orig is the semantic reference — the pre-realization source in
// the compile path, the original version's binary in the tuner path — and
// ref its owner's shared oracle reference. The version keeps the outcome:
// versions are immutable, so one check each suffices even though the
// tuner re-verifies its candidate on every iteration.
func (r *Realizer) verifyVersion(orig *isa.Program, ref *oracleRef, v *Version, x obs.Ctx) error {
	if v == nil {
		return nil
	}
	v.verifyOnce.Do(func() { v.verifyErr = r.verifyUncached(orig, ref, v, x) })
	return v.verifyErr
}

// verifyUncached runs the static invariants, then the execution oracle,
// and reports every violation as a structured "verify.violation" span plus
// a verify.violations counter bump before folding them into a VerifyError.
func (r *Realizer) verifyUncached(orig *isa.Program, ref *oracleRef, v *Version, x obs.Ctx) error {
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
	// The oracle needs a statically sane binary and a reference that is
	// not the binary itself (the decreasing direction runs the original
	// version at padded levels — nothing to diff). Every check that reaches
	// the oracle records its wait for the verdict as a span, whichever
	// check ran the program, so the trace does not depend on scheduling.
	if len(vs) == 0 && orig != nil && orig != v.Prog {
		ref.get(orig, sp.Ctx())
		dsp := sp.Ctx().Span("verify.differential")
		vs = ref.check(v, dsp.Ctx())
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
// is verified against the compile result's original binary. The version
// keeps the outcome, so iterations after the first cost a sync.Once check.
func (r *Realizer) verifyCandidate(cr *CompileResult, cand *Candidate, x obs.Ctx) error {
	if !r.Verify || cand == nil {
		return nil
	}
	var orig *isa.Program
	if cr.Original != nil {
		orig = cr.Original.Prog
	}
	return r.verifyVersion(orig, &cr.oracle, cand.Version, x)
}

package core

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sa"
)

// LintMode selects how static-analysis findings gate compilation.
type LintMode uint8

// Lint modes. LintStrict rejects programs with error-severity findings
// (divergent barriers, shared-memory races) via *AnalysisError; LintOff
// skips the analyzer entirely.
const (
	LintOff LintMode = iota
	LintStrict
)

// String names the mode (the -lint flag values).
func (m LintMode) String() string {
	if m == LintOff {
		return "off"
	}
	return "strict"
}

// ParseLintMode parses a -lint flag value.
func ParseLintMode(s string) (LintMode, error) {
	switch s {
	case "off":
		return LintOff, nil
	case "strict":
		return LintStrict, nil
	}
	return LintOff, fmt.Errorf("core: unknown lint mode %q (want strict or off)", s)
}

// AnalysisError reports that static analysis found error-severity defects
// in a program. TargetWarps is zero when the decoded input program was
// rejected before realization, and the occupancy level otherwise. Like
// VerifyError, it carries the full diagnostic list.
type AnalysisError struct {
	Kernel      string
	TargetWarps int
	Diags       []sa.Diagnostic
}

// Error lists the diagnostics, one per line after the header.
func (e *AnalysisError) Error() string {
	var b strings.Builder
	where := "input program"
	if e.TargetWarps > 0 {
		where = fmt.Sprintf("version at %d warps/SM", e.TargetWarps)
	}
	n := 0
	for _, d := range e.Diags {
		if d.Sev == sa.SevError {
			n++
		}
	}
	fmt.Fprintf(&b, "core: %s %s failed static analysis (%d error", e.Kernel, where, n)
	if n != 1 {
		b.WriteString("s")
	}
	b.WriteString(")")
	for _, d := range e.Diags {
		b.WriteString("\n\t")
		b.WriteString(d.String())
	}
	return b.String()
}

type lintKey struct{}

// lintProgram gates a program on the realizer's lint mode: strict mode
// fails with *AnalysisError when any error-severity finding exists.
// targetWarps is zero for decoded input programs and the occupancy level
// for realized versions. The findings are built once per program
// (isa.Program.Derived, bumping sa.checks / sa.diagnostics); each caller
// records its own "sa.analyze" and per-finding "sa.diagnostic" spans.
func (r *Realizer) lintProgram(p *isa.Program, targetWarps int, x obs.Ctx) error {
	if r.Lint == LintOff {
		return nil
	}
	sp := x.Span("sa.analyze", obs.String("kernel", p.Name))
	v, _ := p.Derived(lintKey{}, func() (any, error) {
		diags := sa.Analyze(p)
		if len(diags) > 0 {
			x.Metrics().Counter("sa.diagnostics").Add(uint64(len(diags)))
		}
		x.Metrics().Counter("sa.checks").Add(1)
		return diags, nil
	})
	diags := v.([]sa.Diagnostic)
	for _, d := range diags {
		dsp := sp.Ctx().Span("sa.diagnostic",
			obs.String("kernel", p.Name),
			obs.String("code", d.Code),
			obs.String("severity", d.Sev.String()),
			obs.String("func", d.Func),
			obs.Int("pc", d.PC),
			obs.String("detail", d.Detail))
		dsp.End()
	}
	if len(diags) > 0 {
		sp.SetAttr(obs.Int("diagnostics", len(diags)))
	}
	sp.End()
	if sa.CountErrors(diags) > 0 {
		return &AnalysisError{Kernel: p.Name, TargetWarps: targetWarps, Diags: diags}
	}
	return nil
}

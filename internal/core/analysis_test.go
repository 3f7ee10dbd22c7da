package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/sa"
)

// TestLintStrictRejectsDefects: the default realizer configuration must
// refuse to compile kernels with error-severity findings, and the error
// must identify the finding.
func TestLintStrictRejectsDefects(t *testing.T) {
	defects, err := kernels.Defects()
	if err != nil {
		t.Fatal(err)
	}
	d := device.GTX680()
	for _, dk := range defects {
		if sa.CountErrors(sa.Analyze(dk.Prog)) == 0 {
			continue // warning/info defects compile under strict mode
		}
		r := NewRealizer(d, device.SmallCache)
		if r.Lint != LintStrict {
			t.Fatal("NewRealizer must default to LintStrict")
		}
		_, err := r.Compile(dk.Prog, true)
		var ae *AnalysisError
		if !errors.As(err, &ae) {
			t.Errorf("%s: Compile = %v, want *AnalysisError", dk.Name, err)
			continue
		}
		if ae.Kernel != dk.Prog.Name || len(ae.Diags) == 0 {
			t.Errorf("%s: malformed AnalysisError %+v", dk.Name, ae)
		}
		if !strings.Contains(ae.Error(), dk.Expect) {
			t.Errorf("%s: error text %q does not mention %s", dk.Name, ae.Error(), dk.Expect)
		}
	}
}

// TestLintOffAllowsDefects: off skips analysis entirely, so a racing
// kernel realizes.
func TestLintOffAllowsDefects(t *testing.T) {
	defects, err := kernels.Defects()
	if err != nil {
		t.Fatal(err)
	}
	var race *kernels.Defect
	for i := range defects {
		if defects[i].Expect == sa.CodeRace {
			race = &defects[i]
			break
		}
	}
	if race == nil {
		t.Fatal("no SA-RACE defect in the corpus")
	}
	r := NewRealizer(device.GTX680(), device.SmallCache)
	r.Verify = false // the defect genuinely races; only the lint gate is under test
	r.Lint = LintOff
	if _, err := r.Realize(race.Prog, 8); err != nil {
		t.Errorf("Realize = %v, want success", err)
	}
}

// TestLintStrictPassesPaperKernels: strict mode must not reject any
// paper-suite kernel — compile one end to end with the gate on.
func TestLintStrictPassesPaperKernels(t *testing.T) {
	k, err := kernels.ByName("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRealizer(device.GTX680(), device.SmallCache)
	if _, err := r.Compile(k.Prog, true); err != nil {
		t.Fatalf("Compile under LintStrict = %v", err)
	}
}

// TestParseLintMode pins the flag grammar.
func TestParseLintMode(t *testing.T) {
	for s, want := range map[string]LintMode{"off": LintOff, "strict": LintStrict} {
		got, err := ParseLintMode(s)
		if err != nil || got != want {
			t.Errorf("ParseLintMode(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("LintMode(%q).String() = %q", s, got.String())
		}
	}
	for _, s := range []string{"bogus", "warn"} {
		if _, err := ParseLintMode(s); err == nil {
			t.Errorf("ParseLintMode(%q) must reject an unknown mode", s)
		}
	}
}

// TestAnalysisErrorTargetWarps: rejection of a realized version (not the
// input) must carry the occupancy level in the error. A defect whose
// error survives realization is needed; the divergent-barrier kernel
// realizes unchanged (no spills at generous budgets), so lint the input
// with the gate off, then gate only the realized side by analyzing
// the version program directly.
func TestAnalysisErrorTargetWarps(t *testing.T) {
	e := &AnalysisError{Kernel: "k", TargetWarps: 16, Diags: []sa.Diagnostic{{Code: sa.CodeRace, Sev: sa.SevError, Func: "main", Detail: "x"}}}
	if !strings.Contains(e.Error(), "16 warps/SM") {
		t.Errorf("error text %q does not carry the occupancy level", e.Error())
	}
	e.TargetWarps = 0
	if !strings.Contains(e.Error(), "input program") {
		t.Errorf("error text %q does not mark an input-program rejection", e.Error())
	}
}

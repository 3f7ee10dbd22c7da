package opt

import (
	"bytes"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// optProgram runs the pipeline on every function of a clone of p and
// returns the transformed program plus per-function stats.
func optProgram(t *testing.T, p *isa.Program, budget int) (*isa.Program, []Stats) {
	t.Helper()
	np := p.Clone()
	sts := make([]Stats, len(np.Funcs))
	for fi, f := range np.Funcs {
		nf, st, err := Run(f, budget)
		if err != nil {
			t.Fatalf("%s fn %d: %v", p.Name, fi, err)
		}
		np.Funcs[fi] = nf
		sts[fi] = st
	}
	return np, sts
}

// mustMaxLive measures width-summed max-live of one function.
func mustMaxLive(t *testing.T, f *isa.Function) int {
	t.Helper()
	fm, err := buildForm(f)
	if err != nil {
		t.Fatal(err)
	}
	return fm.maxLive
}

func TestScheduleShrinksPressure(t *testing.T) {
	// Four independent loads all live at once before any combine; the
	// scheduler must interleave load/consume pairs to cut the peak.
	p := isa.MustParse(`
.kernel sched
.blockdim 32
.func main
  RDSP v0, WARPID
  SHL v9, v0, v0
  LDG v1, [v9]
  LDG v2, [v9+4]
  LDG v3, [v9+8]
  LDG v4, [v9+12]
  IADD v5, v1, v2
  IADD v6, v5, v3
  IADD v7, v6, v4
  STG [v9], v7
  EXIT
`)
	base := mustMaxLive(t, p.Entry())
	nf, st, err := Run(p.Entry(), base-1)
	if err != nil {
		t.Fatal(err)
	}
	// Loads are pinned in program order, so only the pure combines can
	// move; whether the peak drops depends on the shape — but the result
	// must stay semantically identical either way.
	np := p.Clone()
	np.Funcs[0] = nf
	if err := isa.Validate(np); err != nil {
		t.Fatalf("scheduled program invalid: %v", err)
	}
	if vs := verify.Differential(p, np, 4, 0); vs != nil {
		t.Fatalf("semantics changed: %v", vs[0])
	}
	if st.Changed && st.MaxLiveAfter >= st.MaxLiveBefore {
		t.Fatalf("accepted a non-improving transform: %+v", st)
	}
}

// TestSuiteMaxLiveReduced pins the scheduler's reach on the paper suite:
// at three quarters of the baseline max-live it lowers the entry
// function's max-live on six kernels (cfd, dxtc, hotspot, imageDenoising,
// recursiveGaussian, heartwall).
func TestSuiteMaxLiveReduced(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	reduced := 0
	for _, k := range ks {
		f := k.Prog.Entry()
		base := mustMaxLive(t, f)
		_, st, err := Run(f, base*3/4)
		if err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		if st.Changed && st.MaxLiveAfter < st.MaxLiveBefore {
			reduced++
			t.Logf("%s: max-live %d -> %d", k.Name, st.MaxLiveBefore, st.MaxLiveAfter)
		}
	}
	if reduced < 6 {
		t.Fatalf("only %d suite kernels improved, want >= 6", reduced)
	}
}

// TestPipelineBelowBudgetUntouched pins the fast path: a function already
// inside its budget is returned as the same pointer, unmodified.
func TestPipelineBelowBudgetUntouched(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		f := k.Prog.Entry()
		base := mustMaxLive(t, f)
		nf, st, err := Run(f, base)
		if err != nil {
			t.Fatal(err)
		}
		if nf != f || st.Changed {
			t.Fatalf("%s: budget %d >= max-live %d must be a no-op", k.Name, base, base)
		}
	}
}

// TestOptDeterminism pins byte-identical output across repeated runs: the
// pipeline's decisions may not depend on map iteration order or any other
// run-to-run varying state.
func TestOptDeterminism(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		var ref []byte
		for run := 0; run < 3; run++ {
			np, _ := optProgram(t, k.Prog, 16)
			enc := isa.Encode(np)
			if run == 0 {
				ref = enc
			} else if !bytes.Equal(ref, enc) {
				t.Fatalf("%s: run %d produced different bytes", k.Name, run)
			}
		}
	}
}

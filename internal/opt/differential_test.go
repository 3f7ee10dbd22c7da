package opt

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// diffBudgets are the register budgets differential tests sweep: tight
// enough to trigger the scheduler on real kernels, loose enough to hit the
// below-budget fast path too.
var diffBudgets = []int{8, 16, 32}

// errRejected marks a schedule the legality check refused. The scheduler's
// variable-granularity edges imply the checker's register-granularity ones,
// so a rejection is a bug in one of the two, never a reason to decline.
var errRejected = errors.New("schedule rejected by internal/tv")

// diffOptProgram applies the pipeline to every function and returns nil
// when nothing changed.
func diffOptProgram(p *isa.Program, budget int) (*isa.Program, error) {
	np := p.Clone()
	changed := false
	for fi, f := range np.Funcs {
		nf, st, err := Run(f, budget)
		if err != nil {
			return nil, fmt.Errorf("fn %d: %w", fi, err)
		}
		if st.TVRejected != 0 {
			return nil, fmt.Errorf("fn %d: %w: %s", fi, errRejected, st.TVDiag)
		}
		np.Funcs[fi] = nf
		changed = changed || st.Changed
	}
	if !changed {
		return nil, nil
	}
	return np, nil
}

// diffOne validates the transformed program and runs the store-stream
// oracle against the original. Programs whose transformed register
// demand exceeds the interpreter's flat file are skipped — the ladder
// always allocates before execution, so that case never runs directly.
func diffOne(t *testing.T, name string, p *isa.Program, budget, gridWarps int) {
	t.Helper()
	np, err := diffOptProgram(p, budget)
	if err != nil {
		t.Errorf("%s budget=%d: %v", name, budget, err)
		return
	}
	if np == nil {
		return
	}
	if err := isa.Validate(np); err != nil {
		t.Errorf("%s budget=%d: transformed program invalid: %v", name, budget, err)
		return
	}
	if layout, err := interp.NewLayout(np); err != nil || layout.RegHighWater > interp.RegFileSize {
		return // pre-allocation register demand beyond the flat interpreter file
	}
	if vs := verify.Differential(p, np, gridWarps, 0); vs != nil {
		t.Errorf("%s budget=%d: %s: %s", name, budget, vs[0].Invariant, vs[0].Detail)
	}
}

// TestOptDifferentialSuite proves the pipeline preserves semantics on
// every suite kernel at every sweep budget: the interpreter's observable
// store stream must be bit-identical with the scheduler on.
func TestOptDifferentialSuite(t *testing.T) {
	ks, err := kernels.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		gw := k.GridWarps
		if gw > 64 {
			gw = 64 // the oracle replays every warp; cap the grid for test time
		}
		for _, budget := range diffBudgets {
			diffOne(t, k.Name, k.Prog, budget, gw)
		}
	}
}

// TestOptFuzzCorpora replays both checked-in fuzz corpora through the
// pipeline: every structurally valid program must transform to a
// semantically identical one at every sweep budget.
func TestOptFuzzCorpora(t *testing.T) {
	seen := 0
	for _, dir := range []string{
		"../isa/testdata/fuzz/FuzzDecode",
		"../core/testdata/fuzz/FuzzRealize",
	} {
		inputs, err := fuzzcorpus.Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range inputs {
			p, err := isa.Decode(e.Data)
			if err != nil || isa.Validate(p) != nil || !optFuzzable(p) {
				continue
			}
			seen++
			for _, budget := range diffBudgets {
				diffOne(t, e.Name, p, budget, 0)
			}
		}
	}
	if seen == 0 {
		t.Log("no corpus input decoded to a runnable program (corpus may be all-structural)")
	}
}

// optFuzzable bounds fuzzed inputs to the sizes the pipeline is meant
// for, mirroring the realization fuzzer's gate.
func optFuzzable(p *isa.Program) bool {
	if len(p.Funcs) > 8 || p.BlockDim > 1024 {
		return false
	}
	total := 0
	for _, f := range p.Funcs {
		if f.Allocated || f.NumVRegs > 512 {
			return false
		}
		total += len(f.Instrs)
	}
	return total <= 512
}

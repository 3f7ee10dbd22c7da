package kernels

import (
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/isa"
)

// mustAll fails the test if the benchmark registry cannot build.
func mustAll(t *testing.T, f func() ([]*Kernel, error)) []*Kernel {
	t.Helper()
	ks, err := f()
	if err != nil {
		t.Fatalf("building kernels: %v", err)
	}
	return ks
}

func TestAllKernelsValidate(t *testing.T) {
	for _, k := range mustAll(t, All) {
		if err := isa.Validate(k.Prog); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

func TestTable2Characteristics(t *testing.T) {
	for _, k := range mustAll(t, Table2) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			if got := k.Prog.StaticCalls(); got != k.PaperFunc {
				t.Errorf("static calls = %d, want %d (paper Func)", got, k.PaperFunc)
			}
			if got := k.Prog.UsesUserShared(); got != k.PaperSmem {
				t.Errorf("user shared = %v, want %v (paper Smem)", got, k.PaperSmem)
			}
			ml, err := core.MaxLive(k.Prog)
			if err != nil {
				t.Fatalf("MaxLive: %v", err)
			}
			// The Reg column is matched approximately: within ±30% or ±8
			// registers, and capped at the hardware maximum of 63.
			want := k.PaperReg
			lo := want - want*30/100 - 2
			hi := want + want*30/100 + 8
			if want >= 60 {
				hi = 200 // pressure beyond the cap realizes as 63 + spills
			}
			if ml < lo || ml > hi {
				t.Errorf("max-live = %d, paper Reg = %d (accepted %d..%d)", ml, want, lo, hi)
			}
		})
	}
}

func TestKernelsExecute(t *testing.T) {
	for _, k := range mustAll(t, All) {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			res, err := interp.Run(&interp.Launch{Prog: k.Prog, GridWarps: 8}, 2_000_000, nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Stores == 0 {
				t.Error("kernel performed no stores")
			}
			res2, err := interp.Run(&interp.Launch{Prog: k.Prog, GridWarps: 8}, 2_000_000, nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Checksum != res2.Checksum {
				t.Error("kernel is nondeterministic")
			}
		})
	}
}

func TestRegistryLookups(t *testing.T) {
	if ks := mustAll(t, All); len(ks) != 14 {
		t.Errorf("All() = %d kernels, want 14", len(ks))
	}
	if ks := mustAll(t, Table2); len(ks) != 12 {
		t.Errorf("Table2() = %d, want 12", len(ks))
	}
	up, down := mustAll(t, Upward), mustAll(t, Downward)
	if len(up) != 7 || len(down) != 5 {
		t.Errorf("Upward/Downward = %d/%d, want 7/5", len(up), len(down))
	}
	if _, err := ByName("cfd"); err != nil {
		t.Errorf("ByName(cfd): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded")
	}
}

// TestParseCountsSpillSlots guards the parser fix: hand-written spill code
// must populate SpillShared/SpillLocal so later allocation rounds do not
// hand out colliding slots.
func TestParseCountsSpillSlots(t *testing.T) {
	p, err := isa.Parse(`
.kernel spilly
.blockdim 32
.func main
  MOVI v0, 1
  SPST.S 2, v0
  SPST.L 5, v0
  RDSP v1, WARPID
  STG [v1], v0
  EXIT
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	f := p.Funcs[0]
	if f.SpillShared != 3 {
		t.Errorf("SpillShared = %d, want 3 (slot 2 + width 1)", f.SpillShared)
	}
	if f.SpillLocal != 6 {
		t.Errorf("SpillLocal = %d, want 6 (slot 5 + width 1)", f.SpillLocal)
	}
}

package regalloc

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/isa"
)

const movHeavySrc = `
.kernel movy
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 3
  IADD v2, v0, v1
  MOV v3, v2
  IMUL v4, v3, v1
  MOV v5, v4
  IADD v6, v5, v0
  MOV v7, v6
  MOVI v8, 9
  SHL v9, v0, v8
  STG [v9], v7
  EXIT
`

func TestCoalescingBiasAssignsSameColor(t *testing.T) {
	p := isa.MustParse(movHeavySrc)
	v, err := ir.SplitWebs(p.Entry())
	if err != nil {
		t.Fatal(err)
	}
	live := ir.ComputeLiveness(v)
	g := BuildInterference(v, live)
	res, err := Allocate(v, g, 16)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := Rewrite(v, res)
	if err != nil {
		t.Fatal(err)
	}
	// After biased coloring, the three MOVs should all be no-ops.
	noops := 0
	for i := range nf.Instrs {
		in := &nf.Instrs[i]
		if in.Op == isa.OpMov && in.Dst == in.Src[0] {
			noops++
		}
	}
	if noops != 3 {
		t.Errorf("coalesced moves = %d, want 3\n%s", noops, isa.Format(&isa.Program{Name: "m", BlockDim: 32, Funcs: []*isa.Function{nf}}))
	}
}

func TestElideCoalescedMoves(t *testing.T) {
	p := isa.MustParse(movHeavySrc)
	want := runProg(t, p, 4)
	nf, err := AllocateWithSpills(p.Entry(), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := len(nf.Instrs)
	removed := ElideCoalescedMoves(nf)
	if removed == 0 {
		t.Fatal("nothing elided despite biased coloring")
	}
	if len(nf.Instrs) != before-removed {
		t.Errorf("length bookkeeping wrong: %d -> %d with %d removed", before, len(nf.Instrs), removed)
	}
	np := p.Clone()
	np.Funcs[0] = nf
	if got := runProg(t, np, 4); got != want {
		t.Errorf("elision changed semantics: %x vs %x", got, want)
	}
}

func TestElideRetargetsBranches(t *testing.T) {
	// A branch targeting an elided move must land on the next instruction.
	src := `
.kernel br
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 0
  MOVI v2, 5
top:
  MOV v3, v1
  IADD v1, v3, v0
  MOVI v4, 1
  IADD v1, v1, v4
  ISET.LT v5, v1, v2
  CBR v5, top
  STG [v0], v1
  EXIT
`
	p := isa.MustParse(src)
	want, err := interp.Run(&interp.Launch{Prog: p, GridWarps: 2}, 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := AllocateWithSpills(p.Entry(), 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	ElideCoalescedMoves(nf)
	np := p.Clone()
	np.Funcs[0] = nf
	got, err := interp.Run(&interp.Launch{Prog: np, GridWarps: 2}, 10000, nil)
	if err != nil {
		t.Fatalf("after elision: %v\n%s", err, isa.Format(np))
	}
	if got.Checksum != want.Checksum {
		t.Errorf("checksum %x, want %x", got.Checksum, want.Checksum)
	}
}

// TestWide96BitValues: 96-bit (3-slot) variables need 4-aligned registers
// (isa.AlignFor(3) == 4) and must survive the full allocation pipeline.
func TestWide96BitValues(t *testing.T) {
	src := `
.kernel w96
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 10
  SHL v2, v0, v1
  LDG.96 v4, [v2]
  XOR v8, v4, v5
  XOR v8, v8, v6
  MOV.96 v12, v4
  XOR v9, v12, v14
  IADD v10, v8, v9
  STG [v2], v10
  EXIT
`
	p := isa.MustParse(src)
	want := runProg(t, p, 4)
	for _, budget := range []int{16, 10, 8} {
		v, err := ir.SplitWebs(p.Entry())
		if err != nil {
			t.Fatal(err)
		}
		sawWide := false
		for _, d := range v.Defs {
			if d.Width == 3 {
				sawWide = true
			}
		}
		if !sawWide {
			t.Fatal("96-bit group not formed")
		}
		nf, err := AllocateWithSpills(p.Entry(), budget, 4)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		// Verify alignment of every wide access in the allocated code.
		for i := range nf.Instrs {
			in := &nf.Instrs[i]
			if in.HasDst() && in.W() == 3 && int(in.Dst)%4 != 0 {
				t.Errorf("budget %d: 96-bit dst at unaligned register %d", budget, in.Dst)
			}
		}
		np := p.Clone()
		np.Funcs[0] = nf
		if got := runProg(t, np, 4); got != want {
			t.Errorf("budget %d: checksum %x, want %x", budget, got, want)
		}
	}
}

package verify_test

import (
	"errors"
	"testing"

	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/verify"
)

func gtx() (*device.Device, device.CacheConfig) {
	return device.GTX680(), device.SmallCache
}

// allocated parses a program and marks every function as trivially
// allocated (identity coloring: frame = virtual registers), which is valid
// input for the verifier's post-allocation checks.
func allocated(t *testing.T, src string) *isa.Program {
	t.Helper()
	p := isa.MustParse(src)
	for _, f := range p.Funcs {
		f.Allocated = true
		f.FrameSlots = f.NumVRegs
	}
	if err := isa.Validate(p); err != nil {
		t.Fatalf("test program invalid: %v", err)
	}
	return p
}

// realized derives a Realized whose advertised resources match the
// program's actual layout, so tests can perturb exactly one claim.
func realized(t *testing.T, p *isa.Program, target int) verify.Realized {
	t.Helper()
	layout, err := interp.NewLayout(p)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	regs := layout.RegHighWater
	if regs < 1 {
		regs = 1
	}
	return verify.Realized{
		Prog:           p,
		TargetWarps:    target,
		RegsPerThread:  regs,
		SharedPerBlock: p.SharedBytes + layout.SharedSpillSlots*4*p.BlockDim,
		LocalSlots:     layout.LocalSpillSlots,
	}
}

func hasInvariant(vs []verify.Violation, inv string) bool {
	for _, v := range vs {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}

const cleanSrc = `
.kernel clean
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 5
  IADD v2, v0, v1
  STG [v2], v1
  EXIT
`

func TestCheckCleanProgram(t *testing.T) {
	d, cc := gtx()
	p := allocated(t, cleanSrc)
	if vs := verify.Check(d, cc, realized(t, p, 8)); len(vs) != 0 {
		t.Errorf("clean program: %v", vs)
	}
}

func TestCheckNilAndStructure(t *testing.T) {
	d, cc := gtx()
	if vs := verify.Check(d, cc, verify.Realized{}); !hasInvariant(vs, "structure") {
		t.Errorf("nil program: %v", vs)
	}
	p := allocated(t, cleanSrc)
	p.Funcs[0].Instrs[2].Dst = 99 // operand outside the frame
	if vs := verify.Check(d, cc, realized(t, allocatedCopy(t, p), 8)); !hasInvariant(vs, "structure") {
		t.Errorf("broken operand: %v", vs)
	}
}

// allocatedCopy revalidates nothing — it hands the (possibly damaged)
// program straight to the verifier, which must catch the damage itself.
func allocatedCopy(t *testing.T, p *isa.Program) *isa.Program {
	t.Helper()
	return p
}

func TestCheckUnallocated(t *testing.T) {
	d, cc := gtx()
	p := isa.MustParse(cleanSrc) // Allocated stays false
	vs := verify.Check(d, cc, verify.Realized{Prog: p, RegsPerThread: 3})
	if !hasInvariant(vs, "allocated") {
		t.Errorf("unallocated program: %v", vs)
	}
}

func TestCheckWideAlignment(t *testing.T) {
	d, cc := gtx()
	p := allocated(t, `
.kernel wide
.blockdim 32
.func main
  RDSP v0, WARPID
  MOV.64 v1, v3
  STG.64 [v0], v1
  EXIT
`)
	vs := verify.Check(d, cc, realized(t, p, 8))
	if !hasInvariant(vs, "wide-alignment") {
		t.Errorf("odd 64-bit base: %v", vs)
	}
}

func TestCheckSpillOverlap(t *testing.T) {
	d, cc := gtx()
	p := allocated(t, `
.kernel sp
.blockdim 32
.func main
  MOVI v0, 1
  SPST.S 0, v0
  SPST.S 1, v0
  EXIT
`)
	f := p.Funcs[0]
	// Widen the first spill to [0,2): it now partially overlaps [1,2).
	f.Instrs[1].Width = 2
	f.NumVRegs, f.FrameSlots, f.SpillShared = 2, 2, 3
	if err := isa.Validate(p); !errors.Is(err, isa.ErrSpillOverlap) {
		t.Fatalf("Validate = %v, want ErrSpillOverlap", err)
	}
	vs := verify.Check(d, cc, realized(t, p, 8))
	if !hasInvariant(vs, "spill-slots") {
		t.Errorf("partially overlapping spill ranges: %v", vs)
	}
}

const callSrc = `
.kernel cb
.blockdim 32
.func main
  MOVI v1, 5
  MOVI v2, 7
  CALL v0, helper, v1
  IADD v3, v2, v0
  STG [v3], v2
  EXIT
.func helper args 1 ret
  IADD v1, v0, v0
  RET v1
`

func TestCheckCallBounds(t *testing.T) {
	d, cc := gtx()
	p := allocated(t, callSrc)
	p.Funcs[0].CallBounds = []int{4} // no compression: callee above the frame
	if err := isa.Validate(p); err != nil {
		t.Fatalf("test program invalid: %v", err)
	}
	if vs := verify.Check(d, cc, realized(t, p, 8)); len(vs) != 0 {
		t.Errorf("uncompressed call: %v", vs)
	}
	// Compressing to height 2 puts the callee frame on top of v2 and v3;
	// v2 is live across the call, so the binary is broken.
	p.Funcs[0].CallBounds = []int{2}
	vs := verify.Check(d, cc, realized(t, p, 8))
	if !hasInvariant(vs, "call-bounds") {
		t.Errorf("live register under callee frame: %v", vs)
	}
}

func TestCheckLayoutMismatch(t *testing.T) {
	d, cc := gtx()
	p := allocated(t, cleanSrc)
	r := realized(t, p, 8)
	r.RegsPerThread++
	if vs := verify.Check(d, cc, r); !hasInvariant(vs, "layout") {
		t.Errorf("wrong advertised registers: %v", vs)
	}
	r = realized(t, p, 8)
	r.SharedPerBlock += 4
	if vs := verify.Check(d, cc, r); !hasInvariant(vs, "layout") {
		t.Errorf("wrong advertised shared: %v", vs)
	}
	r = realized(t, p, 8)
	r.LocalSlots++
	if vs := verify.Check(d, cc, r); !hasInvariant(vs, "layout") {
		t.Errorf("wrong advertised local slots: %v", vs)
	}
}

func TestCheckRegBudget(t *testing.T) {
	d, cc := gtx()
	p := allocated(t, `
.kernel fat
.blockdim 32
.func main
  MOVI v99, 1
  STG [v99], v99
  EXIT
`)
	vs := verify.Check(d, cc, realized(t, p, 1))
	if !hasInvariant(vs, "reg-budget") {
		t.Errorf("100-register frame on a 63-register device: %v", vs)
	}
}

func TestCheckOccupancyTarget(t *testing.T) {
	d, cc := gtx()
	p := allocated(t, `
.kernel smem
.blockdim 32
.shared 8192
.func main
  RDSP v0, WARPID
  LDS v1, [v0]
  STG [v0], v1
  EXIT
`)
	// 8 KB/block caps resident blocks well below 64 single-warp blocks.
	vs := verify.Check(d, cc, realized(t, p, 64))
	if !hasInvariant(vs, "occupancy") {
		t.Errorf("unreachable occupancy target: %v", vs)
	}
}

func TestDifferentialIdentity(t *testing.T) {
	p := allocated(t, cleanSrc)
	if vs := verify.Differential(p, p, 0, 0); len(vs) != 0 {
		t.Errorf("program vs itself: %v", vs)
	}
}

func TestDifferentialCatchesTampering(t *testing.T) {
	orig := allocated(t, cleanSrc)
	tampered := orig.Clone()
	tampered.Funcs[0].Instrs[1].Imm = 6 // MOVI v1, 6 instead of 5
	vs := verify.Differential(orig, tampered, 0, 0)
	if !hasInvariant(vs, "differential") {
		t.Errorf("tampered constant not caught: %v", vs)
	}
}

func TestDifferentialCatchesTamperingSIMT(t *testing.T) {
	orig := allocated(t, lanesSrc)
	tampered := orig.Clone()
	tampered.Funcs[0].Instrs[1].Imm = 4
	vs := verify.Differential(orig, tampered, 0, 0)
	if !hasInvariant(vs, "differential") {
		t.Fatalf("tampered SIMT constant not caught: %v", vs)
	}
	// Lane 0 stores to address 3+0 in the original and 4+0 in the
	// tampered copy: the first record's address word differs.
	const want = "warp 0: store stream diverges at word 0: got 0x4, want 0x3"
	if vs[0].Detail != want {
		t.Errorf("violation detail %q, want %q", vs[0].Detail, want)
	}
}

// slowSrc finishes in 186 steps per warp: more than an eighth of a
// 1000-step budget.
const slowSrc = `
.kernel slow
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 0
  MOVI v2, 1
  MOVI v3, 60
top:
  IADD v1, v1, v2
  ISET.LT v4, v1, v3
  CBR v4, top
  STG [v0], v1
  EXIT
`

func TestDifferentialAbstains(t *testing.T) {
	loop := allocated(t, spinSrc)
	good := allocated(t, cleanSrc)
	// No reference: the original itself cannot finish.
	if vs := verify.Differential(loop, good, 0, 1000); vs != nil {
		t.Errorf("expected abstention, got %v", vs)
	}
	// Realized side hitting a step budget the original used more than an
	// eighth of proves nothing either.
	if vs := verify.Differential(allocated(t, slowSrc), loop, 0, 1000); vs != nil {
		t.Errorf("expected abstention on realized step limit, got %v", vs)
	}
}

// TestDifferentialRejectsRunaway: a realization that loops forever where
// the original finished far inside the budget is a miscompile, not a
// budget too tight to judge. The realization is the entry-loop kernel
// with its back edge reading a copy of the counter that the loop never
// updates.
func TestDifferentialRejectsRunaway(t *testing.T) {
	orig := allocated(t, `
.kernel entryloop
.blockdim 32
.func main
top:
  MOVI v6, 1
  IADD v1, v1, v6
  MOVI v9, 5
  ISET.LT v7, v1, v9
  CBR v7, top
  RDSP v0, WARPID
  STG [v0], v1
  EXIT
`)
	runaway := allocated(t, `
.kernel entryloop
.blockdim 32
.func main
top:
  MOVI v6, 1
  IADD v2, v1, v6
  MOVI v9, 5
  ISET.LT v7, v2, v9
  CBR v7, top
  RDSP v0, WARPID
  STG [v0], v2
  EXIT
`)
	if vs := verify.Differential(orig, runaway, 0, 0); !hasInvariant(vs, "differential") {
		t.Fatalf("non-terminating realization of a terminating original accepted: %v", vs)
	}
	if vs := verify.Differential(orig, orig, 0, 0); vs != nil {
		t.Fatalf("original rejected against itself: %v", vs)
	}
}

package interp

import (
	"sync"
	"testing"

	"repro/internal/isa"
)

// lockstep drives the reference interpreter and the compiled backend
// through identical warp-scalar launches, comparing every Fill event, every
// Commit error, and the final results. This is the finest-grained
// differential check: it pins the two backends to the same event stream,
// which is what makes the timing simulator's statistics backend-invariant
// by construction.
func lockstep(t *testing.T, src string, gridWarps int) {
	t.Helper()
	lockstepProg(t, isa.MustParse(src), gridWarps)
}

func lockstepProg(t *testing.T, p *isa.Program, gridWarps int) {
	t.Helper()
	if err := isa.Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	layout, err := NewLayout(p)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	comp, err := Compile(p)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	advanceMatchesStep(t, p, gridWarps)
	lc := &Launch{Prog: p, GridWarps: gridWarps}
	wpb := lc.WarpsPerBlock()
	sharedWords := (p.SharedBytes + 3) / 4
	var sharedRef, sharedGot []uint32
	for wi := 0; wi < gridWarps; wi++ {
		if wi%wpb == 0 && sharedWords > 0 {
			sharedRef = make([]uint32, sharedWords)
			sharedGot = make([]uint32, sharedWords)
		}
		w, err := NewWarp(lc, layout, wi, sharedRef)
		if err != nil {
			t.Fatalf("NewWarp: %v", err)
		}
		var ref, got StepExecutor = w, NewCWarp(comp, lc, wi, sharedGot)
		for step := 0; ; step++ {
			if step > 500_000 {
				t.Fatalf("warp %d: runaway kernel", wi)
			}
			var evRef, evGot Event
			ref.Fill(&evRef)
			got.Fill(&evGot)
			compareEvents(t, wi, step, &evRef, &evGot)
			if ref.Done() != got.Done() {
				t.Fatalf("warp %d step %d: Done %v vs %v", wi, step, ref.Done(), got.Done())
			}
			if ref.Done() {
				break
			}
			errRef := ref.Commit()
			errGot := got.Commit()
			if (errRef == nil) != (errGot == nil) {
				t.Fatalf("warp %d step %d: Commit errors diverge: interp %v, compiled %v", wi, step, errRef, errGot)
			}
			if errRef != nil {
				if errRef.Error() != errGot.Error() {
					t.Fatalf("warp %d step %d: error text %q vs %q", wi, step, errRef.Error(), errGot.Error())
				}
				break
			}
		}
		sRef, cRef, nRef := ref.Result()
		sGot, cGot, nGot := got.Result()
		if sRef != sGot || cRef != cGot || nRef != nGot {
			t.Fatalf("warp %d: result (%d, %#x, %d) vs (%d, %#x, %d)",
				wi, sRef, cRef, nRef, sGot, cGot, nGot)
		}
		got.Release()
	}
}

func compareEvents(t *testing.T, wi, step int, ref, got *Event) {
	t.Helper()
	fail := func(field string, a, b any) {
		t.Fatalf("warp %d step %d: event.%s = %v (compiled), want %v (interp); instr %v",
			wi, step, field, b, a, ref.Instr)
	}
	if ref.Instr != got.Instr {
		fail("Instr", ref.Instr, got.Instr)
	}
	if ref.Kind != got.Kind {
		fail("Kind", ref.Kind, got.Kind)
	}
	if ref.Space != got.Space {
		fail("Space", ref.Space, got.Space)
	}
	if ref.Addr != got.Addr {
		fail("Addr", ref.Addr, got.Addr)
	}
	if ref.Bytes != got.Bytes {
		fail("Bytes", ref.Bytes, got.Bytes)
	}
	if ref.AbsDst != got.AbsDst {
		fail("AbsDst", ref.AbsDst, got.AbsDst)
	}
	if ref.AbsSrc != got.AbsSrc {
		fail("AbsSrc", ref.AbsSrc, got.AbsSrc)
	}
	if ref.NSrc != got.NSrc {
		fail("NSrc", ref.NSrc, got.NSrc)
	}
	if ref.ActiveLanes != got.ActiveLanes {
		fail("ActiveLanes", ref.ActiveLanes, got.ActiveLanes)
	}
	if ref.BankConflicts != got.BankConflicts {
		fail("BankConflicts", ref.BankConflicts, got.BankConflicts)
	}
	if ref.DstW != got.DstW {
		fail("DstW", ref.DstW, got.DstW)
	}
	if ref.SrcW != got.SrcW {
		fail("SrcW", ref.SrcW, got.SrcW)
	}
	if len(ref.Lines) != len(got.Lines) {
		fail("Lines", ref.Lines, got.Lines)
	}
	for i := range ref.Lines {
		if ref.Lines[i] != got.Lines[i] {
			fail("Lines", ref.Lines, got.Lines)
		}
	}
}

func TestCompiledMatchesInterpScalarLoop(t *testing.T) {
	// Exercises the ISET+CBR and MOVI+ALU superinstruction families inside
	// a loop, plus LDG/STG and XOR mixing.
	lockstep(t, `
.kernel memk
.blockdim 64
.func main
  RDSP v0, WARPID
  MOVI v1, 12
  SHL v2, v0, v1
  MOVI v3, 0
  MOVI v4, 0
loop:
  MOVI v5, 7
  SHL v6, v3, v5
  IADD v7, v2, v6
  LDG v8, [v7]
  IADD v4, v4, v8
  IADD v9, v4, v8
  XOR v4, v9, v3
  MOVI v10, 1
  IADD v3, v3, v10
  MOVI v11, 24
  ISET.LT v12, v3, v11
  CBR v12, loop
  STG [v2], v4
  EXIT
`, 8)
}

func TestCompiledMatchesInterpFusionTails(t *testing.T) {
	// A branch enters a straight-line run in its middle, right after a
	// MOVI and before an LDG/XOR pair (the name dates from superinstruction
	// fusion, whose pairs these were).
	lockstep(t, `
.kernel tails
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 0
  MOVI v2, 5
  ISET.EQ v3, v0, v1
  CBR v3, target
  MOVI v2, 9
target:
  IADD v4, v2, v0
  LDG v5, [v4]
  XOR v6, v5, v4
  MOVI v7, 256
  SHL v8, v0, v7
  IADD v9, v8, v7
  STG [v9], v6
  EXIT
`, 4)
}

func TestCompiledMatchesInterpCalls(t *testing.T) {
	lockstep(t, `
.kernel callsum
.func main
  MOVI v0, 11
  MOVI v1, 22
  MOVI v2, 33
  CALL v3, chain, v0
  IADD v4, v1, v2
  IADD v5, v4, v3
  MOVI v6, 300
  STG [v6], v5
  EXIT
.func chain args 1 ret
  MOVI v1, 1000
  CALL v2, leaf, v1
  IADD v3, v2, v0
  RET v3
.func leaf args 1 ret
  MOVI v1, 5
  IADD v2, v0, v1
  RET v2
`, 4)
}

func TestCompiledMatchesInterpSpills(t *testing.T) {
	p := isa.MustParse(`
.kernel spilly
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 77
  SPST.L 0, v1
  SPST.S 0, v0
  SPLD.L v2, 0
  SPLD.S v3, 0
  IADD v4, v2, v3
  MOVI v5, 8
  SHL v6, v0, v5
  STG [v6], v4
  EXIT
`)
	p.Entry().SpillLocal = 1
	p.Entry().SpillShared = 1
	lockstepProg(t, p, 8)
}

func TestCompiledMatchesInterpWideAndFloat(t *testing.T) {
	lockstep(t, `
.kernel widef
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 10
  SHL v1, v0, v1
  LDG.64 v2, [v1]
  MOV.64 v4, v2
  I2F v6, v0
  I2F v7, v4
  FADD v8, v6, v7
  FMUL v9, v8, v8
  FSUB v10, v9, v6
  FMIN v11, v9, v10
  FMAX v12, v9, v10
  FFMA v13, v11, v12, v8
  F2I v14, v13
  FSET.GT v15, v13, v6
  CBR v15, skip
  IADD v14, v14, v0
skip:
  STG.64 [v1], v2
  STG [v1], v14
  EXIT
`, 8)
}

func TestCompiledMatchesInterpSharedMemory(t *testing.T) {
	lockstep(t, `
.kernel barx
.shared 1024
.blockdim 64
.func main
  RDSP v0, WARPINBLK
  RDSP v1, BLOCKID
  MOVI v2, 4
  SHL v3, v0, v2
  MOVI v4, 99
  IADD v5, v4, v0
  STS [v3], v5
  BAR
  LDS v6, [v3]
  MOVI v7, 10
  SHL v8, v1, v7
  IADD v9, v8, v3
  STG [v9], v6
  EXIT
`, 8)
}

func TestCompiledOfMemoizes(t *testing.T) {
	p := isa.MustParse(".kernel k\n.func main\n EXIT\n")
	a, err := CompiledOf(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompiledOf(p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("CompiledOf did not memoize")
	}
}

// TestDerivedOncePerProgram races first callers of CompiledOf and LayoutOf
// on one program: all get the one translation, a clone gets its own, and a
// program that cannot be laid out hands its error to every caller.
func TestDerivedOncePerProgram(t *testing.T) {
	p := isa.MustParse(".kernel k\n.func main\n CALL v1, f, v0\n EXIT\n.func f args 1 ret\n RET v0\n")
	bad := p.Clone()
	bad.Funcs[0].CallBounds = []int{} // shorter than the call count
	const callers = 8
	comps := make([]*Compiled, callers)
	layouts := make([]*Layout, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			comps[g], _ = CompiledOf(p)
			layouts[g], _ = LayoutOf(p)
			_, errs[g] = CompiledOf(bad)
		}(g)
	}
	wg.Wait()
	for g := range comps {
		if comps[g] == nil || comps[g] != comps[0] || layouts[g] == nil || layouts[g] != layouts[0] {
			t.Errorf("caller %d: compiled %p layout %p, want %p %p", g, comps[g], layouts[g], comps[0], layouts[0])
		}
		if errs[g] == nil || errs[g] != errs[0] {
			t.Errorf("caller %d: error %v, want the one build's error %v", g, errs[g], errs[0])
		}
	}
	if c, err := CompiledOf(p.Clone()); err != nil || c == comps[0] {
		t.Errorf("clone: compiled %p err %v, want its own translation", c, err)
	}
}

func TestCompiledWarpPoolReuseIsClean(t *testing.T) {
	// A pooled warp must behave exactly like a fresh one: run a kernel that
	// dirties registers and spill slots, release, and re-run.
	src := `
.kernel dirty
.blockdim 32
.func main
  RDSP v0, WARPID
  SPST.L 0, v0
  SPLD.L v1, 0
  MOVI v2, 513
  IADD v3, v1, v2
  MOVI v4, 6
  SHL v5, v0, v4
  STG [v5], v3
  EXIT
`
	p := isa.MustParse(src)
	p.Entry().SpillLocal = 1
	for i := 0; i < 3; i++ {
		lockstepProg(t, p, 4)
	}
}

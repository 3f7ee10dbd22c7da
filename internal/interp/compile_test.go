package interp

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

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
			if in := instrAt(p, int(evRef.PC)); in != evRef.Instr {
				t.Fatalf("warp %d step %d: PC %d is %v, event instruction %v", wi, step, evRef.PC, in, evRef.Instr)
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

// instrAt returns the instruction at a flat PC (isa.Program.PCBases), or
// nil outside the program.
func instrAt(p *isa.Program, pc int) *isa.Instr {
	b := p.PCBases()
	for fi, f := range p.Funcs {
		if pc >= b[fi] && pc < b[fi+1] {
			return &f.Instrs[pc-b[fi]]
		}
	}
	return nil
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
	// Both executors are one-lane here, so neither has lane extras.
	if ref.Lane != nil || got.Lane != nil {
		fail("Lane", ref.Lane, got.Lane)
	}
	if ref.DstW != got.DstW {
		fail("DstW", ref.DstW, got.DstW)
	}
	if ref.SrcW != got.SrcW {
		fail("SrcW", ref.SrcW, got.SrcW)
	}
	if ref.PC != got.PC {
		fail("PC", ref.PC, got.PC)
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

// TestCompiledInstructionSize pins the compiled instruction's footprint:
// every cached version holds one cop per instruction, so a field added to
// Event or cop grows every compiled program.
func TestCompiledInstructionSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 40 {
		t.Errorf("Event is %d bytes, want at most 40", n)
	}
	if n := unsafe.Sizeof(cop{}); n > 48 {
		t.Errorf("cop is %d bytes, want at most 48", n)
	}
}

// TestPeekAtRegFileTop runs a callee whose one-register frame sits at the
// highest base RegFileSize allows, so its operands are register 511, the
// largest index an int16 Event field must carry. Both executors' Peek must
// report it, the compiled one as its frame base plus the frame-relative
// template, and a frame one register larger must be rejected by both.
func TestPeekAtRegFileTop(t *testing.T) {
	const src = `
.kernel top
.blockdim 32
.func main
  MOVI v%[1]d, 7
  CALL v%[2]d, f, v%[1]d
  MOVI v0, 64
  STG [v0], v%[2]d
  EXIT
.func f args 1 ret
  IADD v0, v0, v0
  RET v0
`
	p := isa.MustParse(fmt.Sprintf(src, RegFileSize-2, RegFileSize-3))
	lockstepProg(t, p, 1)
	layout, err := NewLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	if layout.RegHighWater != RegFileSize {
		t.Fatalf("RegHighWater %d, want %d", layout.RegHighWater, RegFileSize)
	}
	comp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	lc := &Launch{Prog: p, GridWarps: 1}
	ref, err := NewWarp(lc, layout, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cw := NewCWarp(comp, lc, 0, nil)
	defer cw.Release()
	for i := 0; i < 2; i++ { // MOVI, CALL
		if err := ref.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := cw.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	const top = RegFileSize - 1
	want := [3]int16{top, top, -1}
	rev := ref.Peek()
	if rev.Instr.Op != isa.OpIAdd || rev.AbsDst != top || rev.AbsSrc != want {
		t.Errorf("reference Peek: %v dst %d srcs %v, want IADD dst %d srcs %v", rev.Instr, rev.AbsDst, rev.AbsSrc, top, want)
	}
	cev, base, _ := cw.Peek()
	b := int16(base)
	if got := [3]int16{b + cev.AbsSrc[0], b + cev.AbsSrc[1], cev.AbsSrc[2]}; cev.Instr != rev.Instr || b+cev.AbsDst != top || got != want {
		t.Errorf("compiled Peek: base %d dst %d srcs %v, want dst %d srcs %v", base, cev.AbsDst, cev.AbsSrc, top, want)
	}

	over := isa.MustParse(fmt.Sprintf(src, RegFileSize-1, RegFileSize-2))
	if _, err := Compile(over); err == nil {
		t.Error("Compile accepted a call chain one register past RegFileSize")
	}
	overLayout, err := NewLayout(over)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWarp(&Launch{Prog: over, GridWarps: 1}, overLayout, 0, nil); err == nil {
		t.Error("NewWarp accepted a call chain one register past RegFileSize")
	}
}

// TestCompileAllocsConstant holds Compile to a fixed number of allocations
// per program, whatever its length: one []cop per function, nothing per
// instruction.
func TestCompileAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		var b strings.Builder
		b.WriteString(".kernel line\n.blockdim 32\n.func main\n  MOVI v0, 1\n")
		for i := 1; i < n-1; i++ {
			fmt.Fprintf(&b, "  IADD v%d, v%d, v0\n", i%8+1, (i+7)%8+1)
		}
		b.WriteString("  EXIT\n")
		p := isa.MustParse(b.String())
		if err := isa.Validate(p); err != nil || len(p.Entry().Instrs) != n {
			t.Fatalf("%d instructions: %v", len(p.Entry().Instrs), err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Compile(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(1024); large != small {
		t.Errorf("Compile allocates %v times for 16 instructions, %v for 1024", small, large)
	}
}

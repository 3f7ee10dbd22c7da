package interproc

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/regalloc"
)

// callHeavySrc has three call sites with different live-across sets,
// echoing the paper's Figure 6 scenario.
const callHeavySrc = `
.kernel callheavy
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 10      ; var1: live across all calls
  MOVI v2, 20      ; var2: live across call2, call3
  MOVI v3, 30      ; var3: live across call1 only
  MOVI v4, 40      ; var4: live across call3 only
  MOVI v5, 50      ; var5: live across call1, call2
  IADD v6, v0, v1
  CALL v7, foo, v6       ; call1: live {v1,v2,v3,v4,v5}? compute below
  IADD v8, v7, v3
  IADD v8, v8, v5
  CALL v9, foo, v8       ; call2
  IADD v10, v9, v2
  IADD v10, v10, v5
  IADD v10, v10, v1
  CALL v11, foo, v10     ; call3
  IADD v12, v11, v2
  IADD v12, v12, v4
  IADD v12, v12, v1
  SHL v13, v0, v3
  STG [v13], v12
  EXIT
.func foo args 1 ret
  MOVI v1, 3
  IMUL v2, v0, v1
  IADD v3, v2, v0
  RET v3
`

// allocProgram register-allocates every function at budget c and applies
// the compressible-stack optimization with the given options.
func allocProgram(t *testing.T, p *isa.Program, c int, opt Options) (*isa.Program, map[string]*Stats) {
	t.Helper()
	np := p.Clone()
	stats := map[string]*Stats{}
	for fi, f := range p.Funcs {
		a, err := regalloc.Run(f, c, 8)
		if err != nil {
			t.Fatalf("regalloc %s: %v", f.Name, err)
		}
		nf, st, err := Optimize(a, opt)
		if err != nil {
			t.Fatalf("optimize %s: %v", f.Name, err)
		}
		np.Funcs[fi] = nf
		stats[f.Name] = st
	}
	return np, stats
}

func checksum(t *testing.T, p *isa.Program, warps int) uint64 {
	t.Helper()
	res, err := interp.Run(&interp.Launch{Prog: p, GridWarps: warps}, 1_000_000, nil)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, isa.Format(p))
	}
	return res.Checksum
}

func TestOptimizePreservesSemantics(t *testing.T) {
	p := isa.MustParse(callHeavySrc)
	want := checksum(t, p, 4)
	opts := map[string]Options{
		"full":        DefaultOptions(),
		"no-space":    {SpaceMin: false, MoveMin: false},
		"no-movement": {SpaceMin: true, MoveMin: false},
	}
	for name, opt := range opts {
		for _, c := range []int{16, 12, 10, 8} {
			np, _ := allocProgram(t, p, c, opt)
			if got := checksum(t, np, 4); got != want {
				t.Errorf("%s budget %d: checksum %x, want %x", name, c, got, want)
			}
		}
	}
}

func TestSpaceMinReducesHighWater(t *testing.T) {
	p := isa.MustParse(callHeavySrc)
	with, _ := allocProgram(t, p, 16, DefaultOptions())
	without, _ := allocProgram(t, p, 16, Options{SpaceMin: false})
	layoutWith, err := interp.NewLayout(with)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	layoutWithout, err := interp.NewLayout(without)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	if layoutWith.RegHighWater >= layoutWithout.RegHighWater {
		t.Errorf("space minimization did not shrink registers: %d vs %d",
			layoutWith.RegHighWater, layoutWithout.RegHighWater)
	}
}

func TestMoveMinReducesMovements(t *testing.T) {
	p := isa.MustParse(callHeavySrc)
	_, optStats := allocProgram(t, p, 16, DefaultOptions())
	_, rawStats := allocProgram(t, p, 16, Options{SpaceMin: true, MoveMin: false})
	if optStats["main"].Movements > rawStats["main"].Movements {
		t.Errorf("matching increased movements: %d vs %d",
			optStats["main"].Movements, rawStats["main"].Movements)
	}
	if rawStats["main"].Calls != 3 {
		t.Errorf("calls = %d, want 3", rawStats["main"].Calls)
	}
}

func TestNoSpaceMinHasNoMovements(t *testing.T) {
	p := isa.MustParse(callHeavySrc)
	_, stats := allocProgram(t, p, 16, Options{SpaceMin: false})
	if stats["main"].Movements != 0 {
		t.Errorf("movements = %d without compression, want 0", stats["main"].Movements)
	}
}

func TestCallBoundsWithinFrame(t *testing.T) {
	p := isa.MustParse(callHeavySrc)
	np, _ := allocProgram(t, p, 16, DefaultOptions())
	main := np.Entry()
	if len(main.CallBounds) != 3 {
		t.Fatalf("call bounds = %v, want 3 entries", main.CallBounds)
	}
	for k, bk := range main.CallBounds {
		if bk < 0 || bk > main.FrameSlots {
			t.Errorf("call %d: bound %d outside frame %d", k, bk, main.FrameSlots)
		}
	}
}

// TestMatchingOptimality cross-checks the Kuhn-Munkres layout against
// brute-force enumeration of all movable-variable layouts on a small
// function.
func TestMatchingOptimality(t *testing.T) {
	src := `
.kernel opt
.blockdim 32
.func main
  MOVI v1, 1     ; a: live across call1 only
  MOVI v2, 2     ; b: live across call2 only
  MOVI v3, 3     ; c: live across both
  CALL v4, foo, v3
  IADD v5, v4, v1
  IADD v5, v5, v3
  CALL v6, foo, v5
  IADD v7, v6, v2
  IADD v7, v7, v3
  STG [v7], v7
  EXIT
.func foo args 1 ret
  MOVI v1, 7
  IADD v2, v0, v1
  RET v2
`
	p := isa.MustParse(src)
	want := checksum(t, p, 2)
	np, stats := allocProgram(t, p, 16, DefaultOptions())
	if got := checksum(t, np, 2); got != want {
		t.Fatalf("checksum changed: %x vs %x", got, want)
	}
	// Brute force: movements for every permutation can't beat the matcher.
	_, identStats := allocProgram(t, p, 16, Options{SpaceMin: true, MoveMin: false})
	if stats["main"].Movements > identStats["main"].Movements {
		t.Errorf("matched layout (%d moves) worse than identity (%d)",
			stats["main"].Movements, identStats["main"].Movements)
	}
}

func TestLeafFunctionUntouched(t *testing.T) {
	src := `
.kernel leafy
.blockdim 32
.func main
  MOVI v0, 1
  STG [v0], v0
  EXIT
`
	p := isa.MustParse(src)
	a, err := regalloc.Run(p.Entry(), 8, 0)
	if err != nil {
		t.Fatalf("regalloc: %v", err)
	}
	nf, st, err := Optimize(a, DefaultOptions())
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	if st.Calls != 0 || st.Movements != 0 {
		t.Errorf("stats = %+v, want no calls/moves", st)
	}
	if len(nf.Instrs) != len(p.Entry().Instrs) {
		t.Errorf("leaf function gained instructions")
	}
	if nf.CallBounds != nil {
		t.Errorf("leaf function has call bounds %v", nf.CallBounds)
	}
}

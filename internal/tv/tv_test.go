package tv

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// fn builds a test function with the given register count; instructions
// use the compact constructors below.
func fn(nregs int, instrs ...isa.Instr) *isa.Function {
	return &isa.Function{Name: "t", NumArgs: 1, NumVRegs: nregs, Instrs: instrs}
}

// perm returns f with its instructions in the given order of original
// indices.
func perm(f *isa.Function, order ...int) *isa.Function {
	nf := f.Clone()
	for k, o := range order {
		nf.Instrs[k] = f.Instrs[o]
	}
	return nf
}

func none3() [3]isa.Reg { return [3]isa.Reg{isa.RegNone, isa.RegNone, isa.RegNone} }
func src1(a int) [3]isa.Reg {
	return [3]isa.Reg{isa.Reg(a), isa.RegNone, isa.RegNone}
}

func movi(d int, imm int32) isa.Instr {
	return isa.Instr{Op: isa.OpMovI, Dst: isa.Reg(d), Src: none3(), Imm: imm}
}
func alu(op isa.Op, d, a, b int) isa.Instr {
	return isa.Instr{Op: op, Dst: isa.Reg(d), Src: [3]isa.Reg{isa.Reg(a), isa.Reg(b), isa.RegNone}}
}

func mov(d, a int) isa.Instr { return movw(1, d, a) }

// movw is a wide move of w registers.
func movw(w, d, a int) isa.Instr {
	return isa.Instr{Op: isa.OpMov, Width: uint8(w), Dst: isa.Reg(d), Src: src1(a)}
}
func ldg(d, addr int, off int32) isa.Instr {
	return isa.Instr{Op: isa.OpLdG, Dst: isa.Reg(d), Src: src1(addr), Imm: off}
}
func stg(addr, val int, off int32) isa.Instr {
	return isa.Instr{Op: isa.OpStG, Dst: isa.RegNone, Src: [3]isa.Reg{isa.Reg(addr), isa.Reg(val), isa.RegNone}, Imm: off}
}

// stgw is a wide store of registers [val, val+w).
func stgw(w, addr, val int) isa.Instr {
	in := stg(addr, val, 0)
	in.Width = uint8(w)
	return in
}
func spillSt(slot int32, val int) isa.Instr {
	return isa.Instr{Op: isa.OpSpillSS, Dst: isa.RegNone, Src: src1(val), Imm: slot}
}
func spillLd(d int, slot int32) isa.Instr {
	return isa.Instr{Op: isa.OpSpillSL, Dst: isa.Reg(d), Src: none3(), Imm: slot}
}
func call(d, callee, arg int) isa.Instr {
	return isa.Instr{Op: isa.OpCall, Dst: isa.Reg(d), Src: src1(arg), Tgt: int32(callee)}
}
func bar() isa.Instr { return isa.Instr{Op: isa.OpBar, Dst: isa.RegNone, Src: none3()} }
func cbr(cond, tgt int) isa.Instr {
	return isa.Instr{Op: isa.OpCbr, Dst: isa.RegNone, Src: src1(cond), Tgt: int32(tgt)}
}
func ret() isa.Instr { return isa.Instr{Op: isa.OpRet, Dst: isa.RegNone, Src: none3()} }

func TestIdentityAccepts(t *testing.T) {
	f := fn(4,
		movi(1, 5),
		alu(isa.OpIAdd, 2, 0, 1),
		stg(0, 2, 0),
		ret(),
	)
	res := Validate(f, f.Clone(), nil)
	if res.Verdict != Accept || res.Reason != "" {
		t.Fatalf("identity: got %v (%s)", res.Verdict, res.Reason)
	}
}

func TestLoopIdentityAccepts(t *testing.T) {
	// v1 = 0; loop: v1 += v0; x = LDG[v1]; STG[v1] = x; if v1 != 0 goto loop; ret
	f := fn(4,
		movi(1, 0),
		alu(isa.OpIAdd, 1, 1, 0),
		ldg(2, 1, 0),
		stg(1, 2, 4),
		cbr(1, 1),
		ret(),
	)
	res := Validate(f, f.Clone(), IdentityHint(len(f.Instrs)))
	if res.Verdict != Accept {
		t.Fatalf("loop identity: got %v (%s)", res.Verdict, res.Reason)
	}
}

func TestCountersAdvance(t *testing.T) {
	c0, r0, _ := Counters()
	f := fn(3, movi(1, 5), alu(isa.OpIAdd, 2, 0, 1), stg(0, 2, 0), ret())
	Validate(f, perm(f, 0, 1, 2, 3), nil)
	Validate(f, perm(f, 1, 0, 2, 3), nil)
	c, r, z := Counters()
	if c-c0 != 2 || r-r0 != 1 || z != 0 {
		t.Fatalf("counters advanced %d/%d/%d, want 2/1/0", c-c0, r-r0, z)
	}
}

func TestDeterministicVerdict(t *testing.T) {
	f := fn(3, movi(1, 5), alu(isa.OpIAdd, 2, 0, 1), stg(0, 2, 0), ret())
	post := perm(f, 1, 0, 2, 3)
	r1, r2 := Validate(f, post, nil), Validate(f, post, nil)
	if r1 != r2 {
		t.Fatalf("nondeterministic verdict: %v/%q vs %v/%q", r1.Verdict, r1.Reason, r2.Verdict, r2.Reason)
	}
}

// TestNonMovableOpcodes pins the checker's own list of movable opcodes
// against the ISA's predicates: everything that touches memory or a spill
// slot, transfers or ends control, synchronizes or calls keeps its program
// order, and nothing that is movable lacks the destination register that
// orders two equal instructions.
func TestNonMovableOpcodes(t *testing.T) {
	nMovable := 0
	for o := 0; o < 256; o++ {
		op := isa.Op(o)
		in := isa.Instr{Op: op}
		pinned := in.IsMem() || in.IsSpill() || in.IsBranch() || in.Terminates() || op == isa.OpBar || op == isa.OpCall
		if pinned && movable(op) {
			t.Errorf("%s is movable", op)
		}
		if movable(op) {
			nMovable++
			if !in.HasDst() {
				t.Errorf("movable %s writes no register", op)
			}
		}
		if defined := op != isa.OpInvalid && !strings.HasPrefix(op.String(), "OP("); defined && !pinned && !movable(op) {
			t.Errorf("%s is neither movable nor covered by an ISA predicate", op)
		}
	}
	if nMovable != 24 {
		t.Errorf("%d movable opcodes, want 24 (21 ALU, MOV, MOVI, RDSP)", nMovable)
	}
}

// TestTotalOnBadInputs feeds the checker what no caller should: it must
// return a rejection, not panic.
func TestTotalOnBadInputs(t *testing.T) {
	ok := fn(3, movi(1, 5), stg(0, 1, 0), ret())
	wild := fn(3, movi(1, 5), cbr(1, 99), ret())
	noReg := fn(3, alu(isa.OpIAdd, 2, 0, int(isa.RegNone)), stg(0, 2, 0), ret())
	beyond := fn(1, movw(4, 7, 3), ret())
	cases := []struct {
		name      string
		pre, post *isa.Function
		want      Verdict
		reason    string
	}{
		{"nil-pre", nil, ok, Reject, "nil"},
		{"nil-post", ok, nil, Reject, "nil"},
		{"nil-both", nil, nil, Reject, "nil"},
		{"shorter-post", ok, fn(3, movi(1, 5), ret()), Reject, "instruction count"},
		{"longer-post", ok, fn(3, movi(1, 5), stg(0, 1, 0), stg(0, 1, 0), ret()), Reject, "instruction count"},
		{"empty", fn(0), fn(0), Accept, ""},
		{"branch-out-of-range", wild, wild.Clone(), Reject, "branch target 99"},
		// Operands outside the declared frame do not index outside the
		// checker's tables.
		{"missing-operand", noReg, noReg.Clone(), Accept, ""},
		{"beyond-frame", beyond, beyond.Clone(), Accept, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Validate(tc.pre, tc.post, nil)
			if res.Verdict != tc.want || !strings.Contains(res.Reason, tc.reason) {
				t.Fatalf("got %v (%q), want %v mentioning %q", res.Verdict, res.Reason, tc.want, tc.reason)
			}
		})
	}
}
